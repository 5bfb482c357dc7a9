package core_test

// A brute-force reference oracle for the paper's definitions, and the
// cross-checks that hold the good-region and nonmasking-tolerance code to
// it on small generated programs and on the GCL fuzz seed corpus.

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"detcorr/internal/core"
	"detcorr/internal/crosscheck"
	"detcorr/internal/explore"
	"detcorr/internal/fault"
	"detcorr/internal/gcl"
	"detcorr/internal/guarded"
	"detcorr/internal/state"
)

// oracleMaxStates bounds the programs the oracle decides: it enumerates
// subsets of the state space, so its cost doubles with every state.
const oracleMaxStates = 16

// mask is a set of states, bit i standing for the state with index i.
type mask = uint32

// oracle decides the paper's definitions literally over a tiny program. It
// enumerates the schema's states itself, reads transitions straight off the
// guarded actions, and answers every question by enumerating sets of
// states: liveness by enumerating the candidate sets a weakly fair infinite
// computation can visit forever, good regions by enumerating every region
// and keeping the union of the valid closed ones. It shares no code with
// package explore.
type oracle struct {
	states []state.State
	all    mask
	post   []mask   // post[s]: targets of the program's transitions from s
	fpost  []mask   // fpost[s]: targets of the fault transitions from s
	act    [][]mask // act[s][a]: targets of action a from s
	on     [][]bool // on[s][a]: action a is enabled at s
	dead   mask     // states where no program action is enabled
	viol   map[mask]mask
}

func newOracle(t *testing.T, p *guarded.Program, f fault.Class) *oracle {
	t.Helper()
	n, bounded := p.Schema().NumStates()
	if !bounded || n > oracleMaxStates {
		t.Fatalf("%s: %d states; the oracle decides at most %d", p.Name(), n, oracleMaxStates)
	}
	o := &oracle{all: mask(1)<<n - 1, viol: map[mask]mask{}}
	for i := uint64(0); i < n; i++ {
		s := p.Schema().StateAt(i)
		o.states = append(o.states, s)
		var post, fpost mask
		act := make([]mask, p.NumActions())
		on := make([]bool, p.NumActions())
		for a := range act {
			if !p.Action(a).Enabled(s) {
				continue
			}
			on[a] = true
			for _, to := range p.Action(a).Next(s) {
				act[a] |= 1 << to.Index()
			}
			post |= act[a]
		}
		for _, fa := range f.Actions {
			if fa.Enabled(s) {
				for _, to := range fa.Next(s) {
					fpost |= 1 << to.Index()
				}
			}
		}
		o.post, o.fpost, o.act, o.on = append(o.post, post), append(o.fpost, fpost), append(o.act, act), append(o.on, on)
		enabled := false
		for _, e := range on {
			enabled = enabled || e
		}
		if !enabled {
			o.dead |= 1 << i
		}
	}
	return o
}

func has(m mask, s int) bool { return m&(1<<s) != 0 }

// members lists the states of m in increasing order.
func members(m mask) []int {
	var out []int
	for ; m != 0; m &= m - 1 {
		out = append(out, bits.TrailingZeros32(m))
	}
	return out
}

// every reports whether pred holds at every state of m.
func every(m mask, pred func(s int) bool) bool {
	for ; m != 0; m &= m - 1 {
		if !pred(bits.TrailingZeros32(m)) {
			return false
		}
	}
	return true
}

func (o *oracle) set(p state.Predicate) mask {
	var m mask
	for i, s := range o.states {
		if p.Holds(s) {
			m |= 1 << i
		}
	}
	return m
}

// closed reports whether no program transition leaves m.
func (o *oracle) closed(m mask) bool {
	return every(m, func(s int) bool { return o.post[s]&^m == 0 })
}

// reach returns the states reachable from `from` by program transitions
// (and fault transitions when faults is set) through states of within.
func (o *oracle) reach(from, within mask, faults bool) mask {
	r := from & within
	for {
		next := r
		for m := r; m != 0; m &= m - 1 {
			s := bits.TrailingZeros32(m)
			next |= o.post[s]
			if faults {
				next |= o.fpost[s]
			}
		}
		next &= within
		if next == r {
			return r
		}
		r = next
	}
}

// fairRun reports whether a weakly fair infinite computation can visit
// exactly the states of S infinitely often: S is strongly connected by
// transitions inside S, has at least one such transition, and every action
// enabled at all states of S (continuously enabled along the computation)
// has a transition inside S, which the computation then takes infinitely
// often.
func (o *oracle) fairRun(S mask) bool {
	if !every(S, func(s int) bool { return o.post[s]&S != 0 }) {
		return false
	}
	first := bits.TrailingZeros32(S)
	if o.reach(1<<first, S, false) != S {
		return false
	}
	back := mask(1) << first
	for grown := true; grown; {
		grown = false
		for m := S &^ back; m != 0; m &= m - 1 {
			if s := bits.TrailingZeros32(m); o.post[s]&back != 0 {
				back |= 1 << s
				grown = true
			}
		}
	}
	if back != S {
		return false
	}
	for a := range o.on[first] {
		enabled := every(S, func(s int) bool { return o.on[s][a] })
		if enabled && every(S, func(s int) bool { return o.act[s][a]&S == 0 }) {
			return false
		}
	}
	return true
}

// violators returns the states from which some weakly fair maximal
// computation never reaches goal: through non-goal states it can reach a
// deadlocked state (a finite maximal computation) or a set of non-goal
// states that a fair infinite computation can visit forever.
func (o *oracle) violators(goal mask) mask {
	if v, ok := o.viol[goal]; ok {
		return v
	}
	avoid := o.all &^ goal
	var runs []mask
	for S := avoid; S != 0; S = (S - 1) & avoid {
		if o.fairRun(S) {
			runs = append(runs, S)
		}
	}
	var bad mask
	for _, s := range members(avoid) {
		r := o.reach(1<<s, avoid, false)
		if r&o.dead != 0 {
			bad |= 1 << s
			continue
		}
		for _, S := range runs {
			if S&^r == 0 {
				bad |= 1 << s
				break
			}
		}
	}
	o.viol[goal] = bad
	return bad
}

// detectorOK reports whether state s satisfies the detector's conditions
// for 'Z detects X': Safeness (Z ⇒ X), Stability (no step from Z to
// ¬Z ∧ X), and Progress (every fair maximal computation from X ∧ ¬Z
// reaches Z ∨ ¬X).
func (o *oracle) detectorOK(s int, z, x mask) bool {
	if has(z, s) && !has(x, s) {
		return false
	}
	if has(z, s) && o.post[s]&x&^z != 0 {
		return false
	}
	return !has(x&^z, s) || !has(o.violators(z|o.all&^x), s)
}

// correctorOK adds the corrector's Convergence: X is never falsified and
// every fair maximal computation reaches X.
func (o *oracle) correctorOK(s int, z, x mask) bool {
	if !o.detectorOK(s, z, x) {
		return false
	}
	if has(x, s) && o.post[s]&^x != 0 {
		return false
	}
	return !has(o.violators(x), s)
}

// goodRegion returns the union of every region G that is closed and whose
// states all satisfy ok: the largest set from which every computation
// satisfies the specification. A region holding a state that fails ok is
// invalid whatever else it holds, so that test runs first.
func (o *oracle) goodRegion(ok func(s int) bool) mask {
	var okStates, union mask
	for s := range o.states {
		if ok(s) {
			okStates |= 1 << s
		}
	}
	for G := mask(0); ; G++ {
		if G&^okStates == 0 && o.closed(G) {
			union |= G
		}
		if G == o.all {
			return union
		}
	}
}

// refines reports whether the program refines the specification from U:
// U is closed and every state of U satisfies ok.
func (o *oracle) refines(u mask, ok func(s int) bool) bool {
	return o.closed(u) && every(u, ok)
}

// nonmasking decides nonmasking F-tolerance: the program refines the
// specification from U, and from every state of the fault span (states
// reachable from U by program and fault transitions) every fair maximal
// computation of the program reaches the specification's good region.
func (o *oracle) nonmasking(u mask, ok func(s int) bool, good mask) bool {
	span := o.reach(u, o.all, true)
	return o.refines(u, ok) && span&o.violators(good) == 0
}

// maskPred names a predicate by its extension, so every graph and span memo
// keyed on predicate names sees one name per set.
func maskPred(m mask) state.Predicate {
	return state.Pred(fmt.Sprintf("m%#x", m), func(s state.State) bool { return has(m, int(s.Index())) })
}

// oracleCase is one program with its fault class and the predicates its
// detectors and correctors are drawn from.
type oracleCase struct {
	name  string
	p     *guarded.Program
	f     fault.Class
	preds []state.Predicate
}

// oracleTally counts the verdicts a cross-check saw, and the good regions
// strictly between empty and the whole space, so a run that only ever saw
// one outcome is reported rather than passing vacuously.
type oracleTally struct{ holds, fails, partial int }

func (t *oracleTally) vacuous() bool { return t.holds == 0 || t.fails == 0 || t.partial == 0 }

func (t *oracleTally) add(ok bool) {
	if ok {
		t.holds++
	} else {
		t.fails++
	}
}

// crossCheck compares GoodRegion and the nonmasking CheckFTolerant verdicts
// of every detector and corrector over the case's predicates against the
// oracle.
func crossCheck(t *testing.T, c oracleCase, rng *rand.Rand, tally *oracleTally) {
	o := newOracle(t, c.p, c.f)
	g, err := explore.Build(c.p, state.True, explore.Options{})
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	nodeSet := func(m mask) *explore.Bitset {
		b := explore.NewBitset(g.NumNodes())
		for _, s := range members(m) {
			id, ok := g.NodeOf(o.states[s])
			if !ok {
				t.Fatalf("%s: state %s not in the graph", c.name, o.states[s])
			}
			b.Add(id)
		}
		return b
	}
	sameSet := func(what string, got *explore.Bitset, want mask) {
		t.Helper()
		if w := nodeSet(want); got.Count() != w.Count() || !got.SubsetOf(w) {
			t.Errorf("%s: %s has %d states, oracle %d (%v)", c.name, what, got.Count(), w.Count(), members(want))
		}
	}
	for _, z := range c.preds {
		for _, x := range c.preds {
			zm, xm := o.set(z), o.set(x)
			dOK := func(s int) bool { return o.detectorOK(s, zm, xm) }
			cOK := func(s int) bool { return o.correctorOK(s, zm, xm) }
			dGood, cGood := o.goodRegion(dOK), o.goodRegion(cOK)
			for _, good := range []mask{dGood, cGood} {
				if good != 0 && good != o.all {
					tally.partial++
				}
			}
			d := core.Detector{D: c.p, Z: z, X: x, U: state.True}
			sameSet(fmt.Sprintf("Detector(%s, %s).GoodRegion", z, x), d.GoodRegion(g), dGood)
			cr := core.Corrector{C: c.p, Z: z, X: x, U: state.True}
			sameSet(fmt.Sprintf("Corrector(%s, %s).GoodRegion", z, x), cr.GoodRegion(g), cGood)

			// U: the whole space, and the states reachable from a random
			// seed set (closed by construction).
			for _, um := range []mask{o.all, o.reach(mask(rng.Uint32())&o.all, o.all, false)} {
				u := maskPred(um)
				d.U, cr.U = u, u
				want := o.nonmasking(um, dOK, dGood)
				if got := d.CheckFTolerant(c.f, fault.Nonmasking) == nil; got != want {
					t.Errorf("%s: nonmasking %s: checker %v, oracle %v", c.name, d, got, want)
				}
				tally.add(want)
				want = o.nonmasking(um, cOK, cGood)
				if got := cr.CheckFTolerant(c.f, fault.Nonmasking) == nil; got != want {
					t.Errorf("%s: nonmasking %s: checker %v, oracle %v", c.name, cr, got, want)
				}
				tally.add(want)
			}
		}
	}
}

// randomPreds draws k predicates over the program's states by extension.
func randomPreds(rng *rand.Rand, p *guarded.Program, k int) []state.Predicate {
	n, _ := p.Schema().NumStates()
	var out []state.Predicate
	for i := 0; i < k; i++ {
		out = append(out, maskPred(mask(rng.Uint32())&(mask(1)<<n-1)))
	}
	return out
}

// TestOracleGeneratedPrograms cross-checks the good regions and nonmasking
// verdicts against the oracle on random boolean programs with random fault
// classes, over 8 and 16 states.
func TestOracleGeneratedPrograms(t *testing.T) {
	var tally oracleTally
	for seed := int64(0); seed < 40; seed++ {
		cfg := crosscheck.GenConfig{}
		if seed%4 == 3 {
			cfg = crosscheck.GenConfig{Vars: 4, Actions: 4}
		}
		p, err := crosscheck.Generate(seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := crosscheck.Generate(seed+1000, crosscheck.GenConfig{Vars: cfg.Vars, Actions: 2})
		if err != nil {
			t.Fatal(err)
		}
		f := fault.NewClass(fmt.Sprintf("rf%d", seed), guarded.MustLift(fp, p.Schema()).Actions()...)
		rng := rand.New(rand.NewSource(seed))
		preds := append(randomPreds(rng, p, 3), state.True)
		crossCheck(t, oracleCase{name: p.Name(), p: p, f: f, preds: preds}, rng, &tally)
	}
	if tally.vacuous() {
		t.Errorf("cross-check saw %+v; want holding and failing verdicts and partial good regions", tally)
	}
}

// TestOracleFuzzCorpus cross-checks the oracle on every program of the GCL
// fuzz seed corpus (the .gcl files FuzzCompile starts from) small enough
// for it, with the file's own fault class, its declared predicates and
// random ones.
func TestOracleFuzzCorpus(t *testing.T) {
	var tally oracleTally
	decided := 0
	for _, dir := range []string{
		filepath.Join("..", "..", "cmd", "dctl", "testdata"),
		filepath.Join("..", "lint", "testdata"),
	} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.gcl"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("no corpus in %s: %v", dir, err)
		}
		for _, path := range paths {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			ast, err := gcl.Parse(string(src))
			if err != nil {
				continue
			}
			f, err := gcl.Compile(ast)
			if err != nil {
				continue
			}
			if n, bounded := f.Schema.NumStates(); !bounded || n > oracleMaxStates {
				continue
			}
			names := make([]string, 0, len(f.Preds))
			for name := range f.Preds {
				names = append(names, name)
			}
			sort.Strings(names)
			preds := []state.Predicate{state.True}
			for _, name := range names {
				preds = append(preds, f.Preds[name])
			}
			rng := rand.New(rand.NewSource(int64(len(src))))
			preds = append(preds, randomPreds(rng, f.Program, 2)...)
			crossCheck(t, oracleCase{name: filepath.Base(path), p: f.Program, f: f.Faults, preds: preds}, rng, &tally)
			decided++
		}
	}
	if decided < 10 {
		t.Errorf("oracle decided only %d corpus programs", decided)
	}
	if tally.vacuous() {
		t.Errorf("cross-check saw %+v; want holding and failing verdicts and partial good regions", tally)
	}
}

// verdict summarizes a tolerance check for the metamorphic relations: ""
// when it holds, else the failed condition (or the error text when the
// failure is not a condition).
func verdict(err error) string {
	if err == nil {
		return ""
	}
	var ce *core.ConditionError
	if errors.As(err, &ce) {
		return ce.Condition
	}
	return err.Error()
}

// toleranceVerdicts checks every detector and corrector over the given
// predicates, under U, for every tolerance kind.
func toleranceVerdicts(p *guarded.Program, f fault.Class, u state.Predicate, preds []state.Predicate) []string {
	var out []string
	for _, z := range preds {
		for _, x := range preds {
			for _, kind := range []fault.Kind{fault.FailSafe, fault.Nonmasking, fault.Masking} {
				out = append(out,
					verdict(core.Detector{D: p, Z: z, X: x, U: u}.CheckFTolerant(f, kind)),
					verdict(core.Corrector{C: p, Z: z, X: x, U: u}.CheckFTolerant(f, kind)))
			}
		}
	}
	return out
}

// varKey packs the first nv (boolean) variables of s into an integer.
func varKey(s state.State, nv int) int {
	key := 0
	for v := 0; v < nv; v++ {
		if s.Bool(v) {
			key |= 1 << v
		}
	}
	return key
}

// keyPred holds at the states whose first nv variables take a valuation in
// m, so it keeps its meaning over a schema extended with fresh variables.
func keyPred(name string, nv int, m mask) state.Predicate {
	return state.Pred(fmt.Sprintf("%s-v%#x", name, m), func(s state.State) bool { return has(m, varKey(s, nv)) })
}

// closedKeyPred returns a keyPred whose valuations are those p reaches from
// a random seed set: closed in p, and in any composition of p with actions
// that write only other variables.
func closedKeyPred(t *testing.T, rng *rand.Rand, name string, p *guarded.Program, nv int) state.Predicate {
	t.Helper()
	m := mask(rng.Uint32()) & (1<<(1<<nv) - 1)
	for grown := true; grown; {
		grown = false
		err := p.Schema().ForEachState(func(s state.State) bool {
			if has(m, varKey(s, nv)) {
				for _, tr := range p.Successors(s) {
					if k := varKey(tr.To, nv); !has(m, k) {
						m |= 1 << k
						grown = true
					}
				}
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return keyPred(name, nv, m)
}

// TestToleranceMetamorphic checks two composition laws on every tolerance
// verdict: swapping the operands of ‖ changes nothing (the composition is a
// union of actions), and neither does composing with an action outside the
// predicates' cone of influence (one toggling a fresh variable that no
// predicate, program action or fault reads).
func TestToleranceMetamorphic(t *testing.T) {
	const nv = 3
	for seed := int64(0); seed < 20; seed++ {
		a, err := crosscheck.Generate(seed, crosscheck.GenConfig{Actions: 2})
		if err != nil {
			t.Fatal(err)
		}
		b0, err := crosscheck.Generate(seed+2000, crosscheck.GenConfig{Actions: 2})
		if err != nil {
			t.Fatal(err)
		}
		fp, err := crosscheck.Generate(seed+1000, crosscheck.GenConfig{Actions: 2})
		if err != nil {
			t.Fatal(err)
		}
		b := guarded.MustLift(b0, a.Schema())
		rng := rand.New(rand.NewSource(seed))
		tag := fmt.Sprintf("meta%d", seed)
		preds := []state.Predicate{state.True}
		for i := 0; i < 3; i++ {
			preds = append(preds, keyPred(fmt.Sprintf("%s-%d", tag, i), nv, mask(rng.Uint32())&0xff))
		}
		ab := guarded.MustParallel("ab", a, b)
		ba := guarded.MustParallel("ba", b, a)
		u := state.True
		if seed%2 == 1 {
			u = closedKeyPred(t, rng, tag+"-u", ab, nv)
		}
		f := fault.NewClass(fmt.Sprintf("rf%d", seed), guarded.MustLift(fp, a.Schema()).Actions()...)
		base := toleranceVerdicts(ab, f, u, preds)
		if swapped := toleranceVerdicts(ba, f, u, preds); !slices.Equal(swapped, base) {
			t.Errorf("seed %d: verdicts change when ‖ operands swap:\n a‖b %q\n b‖a %q", seed, base, swapped)
		}

		wide, err := a.Schema().Extend(state.BoolVar("w"))
		if err != nil {
			t.Fatal(err)
		}
		w, _ := wide.IndexOf("w")
		tick := guarded.MustProgram("tick", wide, guarded.Det("tick", state.True,
			func(s state.State) state.State { return s.WithBool(w, !s.Bool(w)) }))
		withTick := guarded.MustParallel("ab+tick", guarded.MustLift(ab, wide), tick)
		fw := fault.NewClass(fmt.Sprintf("rf%d-wide", seed), guarded.MustLift(fp, wide).Actions()...)
		if ticked := toleranceVerdicts(withTick, fw, u, preds); !slices.Equal(ticked, base) {
			t.Errorf("seed %d: verdicts change with an out-of-cone action:\n a‖b      %q\n a‖b‖tick %q", seed, base, ticked)
		}
	}
}
