package prove

import (
	"fmt"
	"sort"

	"detcorr/internal/absdom"
	"detcorr/internal/gcl"
)

// Engine budgets. miniBudget bounds the per-literal enumeration used
// during constraint propagation; evalBudget bounds the exact fallback that
// decides a branch when propagation is inconclusive; splitBudget bounds
// the total number of DPLL case splits per obligation.
const (
	miniBudget  = 1 << 12
	evalBudget  = 1 << 16
	splitBudget = 1 << 12
)

// Outcome is the result of one validity query.
type Outcome struct {
	Verdict Verdict
	Cex     map[string]int // a state falsifying the obligation, on Disproved
	Notes   []string       // budget-exhaustion traces, on Unknown
}

// valid decides whether hyp1 ∧ hyp2 ∧ ... ⇒ concl holds over the declared
// domains (plus extra, the fresh variables introduced for '?' targets), by
// refuting the conjunction of the hypotheses with ¬concl.
func (sys *System) valid(hyps []gcl.Expr, concl gcl.Expr, extra map[string]*VarDom) Outcome {
	r := &refuter{sys: sys, m: sys.m, vars: map[string]*VarDom{}, splits: splitBudget}
	for n, v := range sys.vars {
		r.vars[n] = v
	}
	for n, v := range extra {
		r.vars[n] = v
	}
	store := absdom.NewStore()
	for n, v := range r.vars {
		store.Define(n, absdom.FullSet(v.Lo, v.Hi))
	}
	conjs := make([]gcl.Expr, 0, len(hyps)+1)
	for _, h := range hyps {
		conjs = append(conjs, nnf(h, false))
	}
	conjs = append(conjs, nnf(concl, true))
	st := r.refute(conjs, store)
	if r.m.stopped() {
		// A stopped search decides nothing; the entry point reports why.
		return Outcome{Verdict: Unknown}
	}
	switch st {
	case refuted:
		return Outcome{Verdict: Proved}
	case satisfiable:
		return Outcome{Verdict: Disproved, Cex: r.cex}
	default:
		return Outcome{Verdict: Unknown, Notes: r.notes}
	}
}

type status int

const (
	refuted status = iota + 1
	satisfiable
	inconclusive
)

type refuter struct {
	sys    *System
	m      *meter // charged for every expression evaluation at a leaf
	vars   map[string]*VarDom
	splits int // remaining case-split budget, shared across the whole query
	notes  []string
	cex    map[string]int
}

// refute decides whether the conjunction of NNF formulas is unsatisfiable
// over the store's domains: DPLL with theory propagation. Literals are
// asserted into the relational store to a fixpoint; clauses (disjunctions)
// are pruned by testing each disjunct against the store, refuting the
// branch when a clause has no consistent disjunct, unit-propagating when
// exactly one survives, and case-splitting otherwise. A branch with no
// clauses left is decided exactly by bounded enumeration over the
// narrowed value sets, which also produces the concrete counterexample.
func (r *refuter) refute(conjs []gcl.Expr, store *absdom.Store) status {
	if r.m.stopped() {
		return inconclusive
	}
	var lits, ors []gcl.Expr
	flatten(conjs, &lits, &ors)
	for _, l := range lits {
		if bl, ok := l.(*gcl.BoolLit); ok && !bl.Value {
			return refuted
		}
	}
	if !r.propagate(lits, store) {
		return refuted
	}
	// Clause pruning and unit propagation to fixpoint.
	for {
		changed := false
		// Not filtered in place: unit propagation can append a live
		// disjunct's nested clauses, outgrowing the read position.
		kept := make([]gcl.Expr, 0, len(ors))
		for _, clause := range ors {
			live := r.liveDisjuncts(clause, lits, store)
			switch len(live) {
			case 0:
				return refuted
			case 1:
				var nl, no []gcl.Expr
				flatten(live, &nl, &no)
				lits = append(lits, nl...)
				kept = append(kept, no...)
				if !r.propagate(nl, store) {
					return refuted
				}
				changed = true
			default:
				if len(live) < countDisjuncts(clause) {
					clause = disj(live...)
					changed = true
				}
				kept = append(kept, clause)
			}
		}
		ors = kept
		if !changed {
			break
		}
	}
	if len(ors) == 0 {
		return r.decideExact(lits, store)
	}
	// Case split on the clause with the fewest disjuncts.
	sort.SliceStable(ors, func(i, j int) bool {
		return countDisjuncts(ors[i]) < countDisjuncts(ors[j])
	})
	clause, rest := ors[0], ors[1:]
	branches := appendDisjuncts(nil, clause)
	if r.splits < len(branches) {
		// Budget exhausted: we can no longer refute by splitting, but the
		// exact fallback over everything left can still decide the branch.
		return r.decideExact(append(append([]gcl.Expr{}, lits...), ors...), store)
	}
	r.splits -= len(branches)
	sawUnknown := false
	for _, d := range branches {
		sub := append(append([]gcl.Expr{}, lits...), rest...)
		sub = append(sub, d)
		switch r.refute(sub, store.Clone()) {
		case satisfiable:
			return satisfiable
		case inconclusive:
			sawUnknown = true
		}
	}
	if sawUnknown {
		return inconclusive
	}
	return refuted
}

// liveDisjuncts returns the disjuncts of a clause that remain consistent
// with the store (testing each by asserting it into a clone along with a
// re-propagation of the branch literals).
func (r *refuter) liveDisjuncts(clause gcl.Expr, lits []gcl.Expr, store *absdom.Store) []gcl.Expr {
	var live []gcl.Expr
	for _, d := range appendDisjuncts(nil, clause) {
		probe := store.Clone()
		var dl, dors []gcl.Expr
		flatten([]gcl.Expr{d}, &dl, &dors)
		if !r.propagate(dl, probe) {
			continue
		}
		// Re-run the branch literals against the strengthened store: an
		// equality learned from d can contradict an arithmetic literal.
		if !r.propagate(lits, probe) {
			continue
		}
		live = append(live, d)
	}
	return live
}

// flatten splits NNF formulas into literals and disjunctions, recursing
// through conjunctions.
func flatten(conjs []gcl.Expr, lits, ors *[]gcl.Expr) {
	for _, e := range conjs {
		if b, ok := e.(*gcl.Binary); ok {
			switch b.Op {
			case gcl.AND:
				flatten([]gcl.Expr{b.L, b.R}, lits, ors)
				continue
			case gcl.OR:
				*ors = append(*ors, b)
				continue
			}
		}
		*lits = append(*lits, e)
	}
}

func appendDisjuncts(out []gcl.Expr, e gcl.Expr) []gcl.Expr {
	if b, ok := e.(*gcl.Binary); ok && b.Op == gcl.OR {
		return appendDisjuncts(appendDisjuncts(out, b.L), b.R)
	}
	return append(out, e)
}

func countDisjuncts(e gcl.Expr) int { return len(appendDisjuncts(nil, e)) }

// propagate asserts every literal into the store repeatedly until nothing
// changes. It reports false when the store becomes contradictory (the
// branch is refuted).
func (r *refuter) propagate(lits []gcl.Expr, store *absdom.Store) bool {
	for round := 0; round < 64; round++ {
		changed := false
		for _, l := range lits {
			if r.assertLiteral(l, store) {
				changed = true
			}
			if store.Contradictory() {
				return false
			}
		}
		if !changed {
			return true
		}
	}
	return !store.Contradictory()
}

// assertLiteral refines the store with one NNF literal and reports whether
// anything changed. Relational forms (var-to-var equality, disequality,
// and order) feed the union-find and interval machinery; everything else
// falls back to a bounded enumeration over the literal's equality-class
// representatives, narrowing each to the projection of the literal's
// satisfying assignments.
func (r *refuter) assertLiteral(l gcl.Expr, store *absdom.Store) bool {
	switch n := l.(type) {
	case *gcl.BoolLit:
		if !n.Value {
			store.MarkContradictory()
			return true
		}
		return false
	case *gcl.Ref:
		return store.Narrow(n.Name, absdom.SingleSet(1))
	case *gcl.Unary:
		if ref, ok := n.X.(*gcl.Ref); ok && n.Op == gcl.NOT {
			return store.Narrow(ref.Name, absdom.SingleSet(0))
		}
		return r.assertByEnum(l, store)
	case *gcl.Binary:
		lr, lok := n.L.(*gcl.Ref)
		rr, rok := n.R.(*gcl.Ref)
		if lok && rok {
			switch n.Op {
			case gcl.EQ:
				return store.Equate(lr.Name, rr.Name)
			case gcl.NEQ:
				return store.Disequate(lr.Name, rr.Name)
			case gcl.LT, gcl.LE, gcl.GT, gcl.GE:
				return r.assertOrder(n.Op, lr.Name, rr.Name, store)
			}
		}
		return r.assertByEnum(l, store)
	}
	return false
}

// assertOrder refines interval bounds from a variable-to-variable order
// literal.
func (r *refuter) assertOrder(op gcl.Kind, a, b string, store *absdom.Store) bool {
	if op == gcl.GT || op == gcl.GE {
		a, b = b, a
		if op == gcl.GT {
			op = gcl.LT
		} else {
			op = gcl.LE
		}
	}
	sa, okA := store.SetOf(a)
	sb, okB := store.SetOf(b)
	if !okA || !okB || sa.IsEmpty() || sb.IsEmpty() {
		return false
	}
	strict := 0
	if op == gcl.LT {
		strict = 1
	}
	changed := store.Narrow(a, sa.ClampMax(sb.IV.Hi-strict))
	if store.Contradictory() {
		return true
	}
	if store.Narrow(b, sb.ClampMin(sa.IV.Lo+strict)) {
		changed = true
	}
	if op == gcl.LT && store.Rep(a) == store.Rep(b) {
		store.MarkContradictory() // x < x
		return true
	}
	return changed
}

// assertByEnum decides an arbitrary literal by enumerating the value sets
// of its variables' equality-class representatives (each member variable
// takes its representative's value, and combinations violating a recorded
// disequality are skipped). If no combination satisfies the literal the
// store is contradictory; otherwise each representative is narrowed to
// the values that appear in some satisfying combination. Products beyond
// miniBudget are skipped — the exact fallback may still decide them.
func (r *refuter) assertByEnum(l gcl.Expr, store *absdom.Store) bool {
	vars := sortedVars(l)
	cost := exprSize(l)
	if len(vars) == 0 {
		if !r.m.charge(cost) {
			return false
		}
		if compileExpr(l, nil)(nil) == 0 {
			store.MarkContradictory()
			return true
		}
		return false
	}
	// Group variables by representative.
	repOf := map[string]string{}
	var reps []string
	for _, v := range vars {
		rep := store.Rep(v)
		repOf[v] = rep
		seen := false
		for _, x := range reps {
			if x == rep {
				seen = true
				break
			}
		}
		if !seen {
			reps = append(reps, rep)
		}
	}
	sets := make([]absdom.Set, len(reps))
	total := 1
	for i, rep := range reps {
		set, ok := store.SetOf(rep)
		if !ok || set.IsEmpty() {
			return false
		}
		sets[i] = set
		if c := set.Count(); total > miniBudget/c {
			return false // too wide to enumerate here
		} else {
			total *= c
		}
	}
	feasible := make([]absdom.Set, len(reps))
	for i := range feasible {
		feasible[i] = absdom.EmptySet()
	}
	eval := compileExpr(l, repSlots(vars, reps, repOf))
	vals := make([]int, len(reps))
	// rec enumerates the combinations from representative i on; it
	// reports false once the meter stops the run.
	var rec func(i int) bool
	any := false
	rec = func(i int) bool {
		if i == len(reps) {
			if !r.m.charge(cost) {
				return false
			}
			if eval(vals) == 0 {
				return true
			}
			any = true
			for j := range reps {
				feasible[j] = absdom.Union(feasible[j], absdom.SingleSet(vals[j]))
			}
			return true
		}
		going := true
		sets[i].ForEach(func(v int) bool {
			vals[i] = v
			// Skip combinations violating recorded disequalities between the
			// enumerated representatives.
			for j := 0; j < i; j++ {
				if vals[j] == v && store.Disequal(reps[i], reps[j]) {
					return true
				}
			}
			going = rec(i + 1)
			return going
		})
		return going
	}
	if !rec(0) {
		return false
	}
	if !any {
		store.MarkContradictory()
		return true
	}
	changed := false
	for i, rep := range reps {
		if store.Narrow(rep, feasible[i]) {
			changed = true
		}
	}
	return changed
}

// repSlots maps each variable to the index of its representative's value
// in an enumeration's value vector.
func repSlots(vars, reps []string, repOf map[string]string) map[string]int {
	slots := make(map[string]int, len(vars))
	for _, v := range vars {
		slots[v] = indexOf(reps, repOf[v])
	}
	return slots
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// decideExact decides a clause-free branch by enumerating all assignments
// to the formulas' variables over their narrowed value sets, checking the
// full formula list concretely. This is complete for the branch (the store
// narrowings are sound, so no satisfying assignment lies outside them).
// Exceeding evalBudget yields inconclusive with a trace note, as does a
// meter stop mid-enumeration.
func (r *refuter) decideExact(conjs []gcl.Expr, store *absdom.Store) status {
	varSet := map[string]bool{}
	for _, e := range conjs {
		freeVars(e, varSet)
	}
	vars := make([]string, 0, len(varSet))
	for v := range varSet {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	// Enumerate per representative; members copy their rep's value.
	var reps []string
	repOf := map[string]string{}
	for _, v := range vars {
		rep := store.Rep(v)
		repOf[v] = rep
		if indexOf(reps, rep) < 0 {
			reps = append(reps, rep)
		}
	}
	sets := make([]absdom.Set, len(reps))
	total := 1
	for i, rep := range reps {
		set, ok := store.SetOf(rep)
		if !ok {
			set = absdom.FullSet(0, 1)
		}
		if set.IsEmpty() {
			return refuted
		}
		sets[i] = set
		if c := set.Count(); total > evalBudget/c {
			r.notes = append(r.notes, fmt.Sprintf(
				"exact fallback abandoned: enumerating %d variables exceeds the %d-assignment budget",
				len(reps), evalBudget))
			return inconclusive
		} else {
			total *= c
		}
	}
	slots := repSlots(vars, reps, repOf)
	evals := make([]func([]int) int, len(conjs))
	costs := make([]int, len(conjs))
	for i, e := range conjs {
		evals[i] = compileExpr(e, slots)
		costs[i] = exprSize(e)
	}
	vals := make([]int, len(reps))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(reps) {
			for k, eval := range evals {
				if !r.m.charge(costs[k]) || eval(vals) == 0 {
					return false
				}
			}
			return true
		}
		found := false
		sets[i].ForEach(func(v int) bool {
			vals[i] = v
			for j := 0; j < i; j++ {
				if vals[j] == v && store.Disequal(reps[i], reps[j]) {
					return true
				}
			}
			if rec(i + 1) {
				found = true
				return false
			}
			return !r.m.stopped()
		})
		return found
	}
	if rec(0) {
		env := make(map[string]int, len(vars))
		for _, v := range vars {
			env[v] = vals[slots[v]]
		}
		// Complete the witness with every declared variable so the report
		// shows a full state (unconstrained variables take their minimum).
		r.cex = map[string]int{}
		for _, name := range r.sys.order {
			if v, bound := env[name]; bound {
				r.cex[name] = v
				continue
			}
			rep := repOf[name]
			if rep == "" {
				rep = store.Rep(name)
			}
			if set, ok := store.SetOf(rep); ok && !set.IsEmpty() {
				r.cex[name] = set.IV.Lo
			} else {
				r.cex[name] = r.sys.vars[name].Lo
			}
		}
		for name, v := range env {
			if _, declared := r.sys.vars[name]; !declared {
				r.cex[name] = v // fresh '?' variables, rendered with their tick
			}
		}
		return satisfiable
	}
	if r.m.stopped() {
		return inconclusive
	}
	return refuted
}
