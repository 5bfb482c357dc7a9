package explore

import (
	"slices"
	"strings"
	"sync"

	"detcorr/internal/state"
)

// graphMemo holds per-graph memoized derived artifacts: predicate bitsets,
// full reachability closures, the fair-edge view used by the SCC pass, fair
// SCC decompositions, liveness verdicts, and a generic key→value store for
// cross-package results (e.g. closure verdicts). Each artifact has its own
// mutex because computing one artifact may consult another (CheckEventually
// calls Reach and fairSCCs); a single lock would self-deadlock.
//
// Every Graph built by Build carries a memo. Filtered and fairness-restricted
// views get a fresh one — their edge sets or fairness masks differ, so none
// of the parent's artifacts carry over. A nil memo (zero-value Graphs built by
// tests) disables memoization; every accessor degrades to direct computation.
type graphMemo struct {
	setMu sync.Mutex
	sets  map[string]*Bitset

	reachMu sync.Mutex
	reach   []reachEntry

	ceMu sync.Mutex
	ce   []ceEntry

	fairOnce sync.Once
	fairView *Graph

	sccMu sync.Mutex
	sccs  []sccEntry

	genMu sync.Mutex
	gen   map[string]any
}

// reachMemoCap bounds the Reach memo: checks loop over a handful of start
// sets (the init set, the span, per-obligation P-sets), so a small LRU covers
// the reuse without retaining every one-off query on big graphs.
const reachMemoCap = 8

// ceMemoCap bounds the CheckEventually memo. Repeated identical obligations
// (the cached-reuse path) hit entry 0; fixpoint loops that shrink their sets
// each round mostly miss and just rotate through.
const ceMemoCap = 8

// sccMemoCap bounds the fair-SCC memo, keyed by the `within` restriction.
const sccMemoCap = 4

type reachEntry struct {
	from *Bitset
	res  *Bitset
}

type ceEntry struct {
	from, goal *Bitset
	v          *LivenessViolation
}

type sccEntry struct {
	within *Bitset // nil = unrestricted
	comps  [][]int
}

func newGraphMemo() *graphMemo {
	return &graphMemo{sets: map[string]*Bitset{}, gen: map[string]any{}}
}

// memoizablePredName reports whether a predicate name can serve as a memo
// key. The contract is the one the library's constructors maintain: for one
// program, a name built by the state package's combinators (And, Or, Not,
// VarEquals, named Pred closures, …) determines the predicate's extension.
// The unnamed placeholders — "" and the String() stand-ins "<anonymous>",
// "<safety>", "<problem>", "<faults>" — carry no identity and must bypass
// every name-keyed memo. Comparison operators in GCL-derived names ("x < 3")
// are fine; only the exact placeholder tokens disqualify a name.
// MemoizableName is the exported form of the contract, for packages that
// key their own per-graph results (via Graph.Memoize) on predicate names.
func MemoizableName(name string) bool { return memoizablePredName(name) }

func memoizablePredName(name string) bool {
	if name == "" {
		return false
	}
	for _, placeholder := range []string{"<anonymous>", "<safety>", "<problem>", "<faults>"} {
		if strings.Contains(name, placeholder) {
			return false
		}
	}
	return true
}

// bitsetEqual compares contents word by word (capacities match within one
// graph; differing lengths only arise across graphs and compare unequal).
func bitsetEqual(a, b *Bitset) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.n != b.n {
		return false
	}
	for i := range a.words {
		if a.words[i] != b.words[i] {
			return false
		}
	}
	return true
}

// memoSetOf serves SetOf from the per-graph memo when the predicate's name
// is a valid key, returning a private clone (SetOf callers mutate results).
func (g *Graph) memoSetOf(p state.Predicate) (*Bitset, bool) {
	m := g.memo
	if m == nil || !memoizablePredName(p.String()) {
		return nil, false
	}
	key := p.String()
	m.setMu.Lock()
	b, ok := m.sets[key]
	m.setMu.Unlock()
	if ok {
		return b.Clone(), true
	}
	b = g.computeSetOf(p)
	m.setMu.Lock()
	m.sets[key] = b
	m.setMu.Unlock()
	return b.Clone(), true
}

// memoReach serves unrestricted (within == nil) reachability queries from a
// small content-keyed LRU, cloning both the stored key and the returned set
// so callers that mutate their inputs or results never corrupt the memo.
func (g *Graph) memoReach(from *Bitset) *Bitset {
	m := g.memo
	m.reachMu.Lock()
	for i := range m.reach {
		if bitsetEqual(m.reach[i].from, from) {
			e := m.reach[i]
			copy(m.reach[1:i+1], m.reach[:i])
			m.reach[0] = e
			m.reachMu.Unlock()
			return e.res.Clone()
		}
	}
	m.reachMu.Unlock()
	res := g.computeReach(from, nil)
	m.reachMu.Lock()
	if len(m.reach) < reachMemoCap {
		m.reach = append(m.reach, reachEntry{})
	}
	copy(m.reach[1:], m.reach[:len(m.reach)-1])
	m.reach[0] = reachEntry{from: from.Clone(), res: res}
	m.reachMu.Unlock()
	return res.Clone()
}

// memoCheckEventually serves liveness verdicts from a content-keyed LRU. The
// keys are cloned on store: callers like the witness-predicate fixpoint
// mutate their start/goal sets between calls, and a stored alias would make
// later lookups compare against a moved target.
func (g *Graph) memoCheckEventually(from, goal *Bitset) *LivenessViolation {
	m := g.memo
	m.ceMu.Lock()
	for i := range m.ce {
		if bitsetEqual(m.ce[i].from, from) && bitsetEqual(m.ce[i].goal, goal) {
			e := m.ce[i]
			copy(m.ce[1:i+1], m.ce[:i])
			m.ce[0] = e
			m.ceMu.Unlock()
			return e.v
		}
	}
	m.ceMu.Unlock()
	v := g.computeCheckEventually(from, goal)
	m.ceMu.Lock()
	if len(m.ce) < ceMemoCap {
		m.ce = append(m.ce, ceEntry{})
	}
	copy(m.ce[1:], m.ce[:len(m.ce)-1])
	m.ce[0] = ceEntry{from: from.Clone(), goal: goal.Clone(), v: v}
	m.ceMu.Unlock()
	return v
}

// fairEdgeView returns the fair-edge-only view the SCC pass runs on,
// computed once per graph. Dropping the `within` term from the edge filter is
// sound because SCCs(within) never opens a frame for — and therefore never
// reads the out-edges of — a node outside within. A graph whose actions are
// all fair is its own fair view, so no edge copy is made for it.
func (g *Graph) fairEdgeView() *Graph {
	if !slices.Contains(g.fair, false) {
		return g
	}
	m := g.memo
	if m == nil {
		return g.filterEdges(func(from int, e Edge) bool { return g.fair[e.Action] }, false)
	}
	m.fairOnce.Do(func() {
		m.fairView = g.filterEdges(func(from int, e Edge) bool { return g.fair[e.Action] }, false)
	})
	return m.fairView
}

// memoFairSCCs serves fair SCC decompositions keyed by the `within`
// restriction. The component slices are shared; callers treat them as
// read-only (FairCycle and its helpers only iterate).
func (g *Graph) memoFairSCCs(within *Bitset) [][]int {
	m := g.memo
	m.sccMu.Lock()
	for i := range m.sccs {
		if bitsetEqual(m.sccs[i].within, within) {
			e := m.sccs[i]
			copy(m.sccs[1:i+1], m.sccs[:i])
			m.sccs[0] = e
			m.sccMu.Unlock()
			return e.comps
		}
	}
	m.sccMu.Unlock()
	comps := g.fairEdgeView().SCCs(within)
	var key *Bitset
	if within != nil {
		key = within.Clone()
	}
	m.sccMu.Lock()
	if len(m.sccs) < sccMemoCap {
		m.sccs = append(m.sccs, sccEntry{})
	}
	copy(m.sccs[1:], m.sccs[:len(m.sccs)-1])
	m.sccs[0] = sccEntry{within: key, comps: comps}
	m.sccMu.Unlock()
	return comps
}

// Memoize returns the value computed for key the first time it was asked
// for on this graph, running compute at most once per key. It backs
// cross-package per-graph results — closure verdicts, derived sets — whose
// keys follow the predicate-name contract of the per-graph memos: within one
// graph a key must determine its value. Graphs without a memo (zero-value
// test graphs) run compute every time. compute must not call Memoize on the
// same graph.
func (g *Graph) Memoize(key string, compute func() any) any {
	m := g.memo
	if m == nil {
		return compute()
	}
	m.genMu.Lock()
	if v, ok := m.gen[key]; ok {
		m.genMu.Unlock()
		return v
	}
	m.genMu.Unlock()
	v := compute()
	m.genMu.Lock()
	if prev, ok := m.gen[key]; ok {
		v = prev // another goroutine computed it first; keep one canonical value
	} else {
		m.gen[key] = v
	}
	m.genMu.Unlock()
	return v
}
