package explore

import (
	"math/rand"
	"testing"
)

// randBitset draws a random subset of [0,n) and its map oracle.
func randBitset(rng *rand.Rand, n int) (*Bitset, map[int]bool) {
	b := NewBitset(n)
	oracle := map[int]bool{}
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			b.Add(i)
			oracle[i] = true
		}
	}
	return b, oracle
}

func sameSet(b *Bitset, oracle map[int]bool) bool {
	if b.Count() != len(oracle) {
		return false
	}
	for id := range oracle {
		if !b.Has(id) {
			return false
		}
	}
	return true
}

// TestBitsetAgainstMapOracle checks every set operation against a
// map[int]bool oracle on random seeded inputs, plus the algebraic laws the
// checker relies on (Clone independence, De Morgan via Complement,
// idempotence, union/intersection symmetry of counts).
func TestBitsetAgainstMapOracle(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		a, oa := randBitset(rng, n)
		b, ob := randBitset(rng, n)

		union := a.Clone()
		union.Union(b)
		ou := map[int]bool{}
		for id := range oa {
			ou[id] = true
		}
		for id := range ob {
			ou[id] = true
		}
		if !sameSet(union, ou) {
			t.Fatalf("seed %d: Union diverges from oracle", seed)
		}

		inter := a.Clone()
		inter.Intersect(b)
		oi := map[int]bool{}
		for id := range oa {
			if ob[id] {
				oi[id] = true
			}
		}
		if !sameSet(inter, oi) {
			t.Fatalf("seed %d: Intersect diverges from oracle", seed)
		}

		diff := a.Clone()
		diff.Subtract(b)
		od := map[int]bool{}
		for id := range oa {
			if !ob[id] {
				od[id] = true
			}
		}
		if !sameSet(diff, od) {
			t.Fatalf("seed %d: Subtract diverges from oracle", seed)
		}

		comp := a.Complement()
		oc := map[int]bool{}
		for i := 0; i < n; i++ {
			if !oa[i] {
				oc[i] = true
			}
		}
		if !sameSet(comp, oc) {
			t.Fatalf("seed %d: Complement diverges from oracle", seed)
		}

		// Clone independence: mutating the clone leaves the original alone.
		cl := a.Clone()
		for i := 0; i < n; i++ {
			cl.Add(i)
		}
		if !sameSet(a, oa) {
			t.Fatalf("seed %d: Clone shares storage with the original", seed)
		}

		// |A∪B| + |A∩B| = |A| + |B| and subset relations.
		if union.Count()+inter.Count() != a.Count()+b.Count() {
			t.Fatalf("seed %d: inclusion-exclusion violated", seed)
		}
		if !inter.SubsetOf(a) || !inter.SubsetOf(b) || !a.SubsetOf(union) || !b.SubsetOf(union) {
			t.Fatalf("seed %d: subset laws violated", seed)
		}

		// Idempotence: A∪A = A, A∩A = A.
		idem := a.Clone()
		idem.Union(a)
		if !sameSet(idem, oa) {
			t.Fatalf("seed %d: Union not idempotent", seed)
		}
		idem.Intersect(a)
		if !sameSet(idem, oa) {
			t.Fatalf("seed %d: Intersect not idempotent", seed)
		}

		// ForEach visits exactly the members, in increasing order.
		last := -1
		visited := 0
		a.ForEach(func(id int) bool {
			if id <= last || !oa[id] {
				t.Fatalf("seed %d: ForEach emitted %d after %d", seed, id, last)
			}
			last = id
			visited++
			return true
		})
		if visited != len(oa) {
			t.Fatalf("seed %d: ForEach visited %d of %d members", seed, visited, len(oa))
		}
	}
}

// randGraph builds a structural Graph with n placeholder nodes and random
// edges; only the adjacency structure matters for SCC and reachability.
func randGraph(rng *rand.Rand, n int, edgeProb float64) *Graph {
	out := make([][]Edge, n)
	for v := 0; v < n; v++ {
		for w := 0; w < n; w++ {
			if rng.Float64() < edgeProb {
				out[v] = append(out[v], Edge{Action: 0, To: w})
			}
		}
	}
	return newAdjacencyGraph(out, []bool{true})
}

// TestSCCsAgainstReachOracle cross-checks Tarjan against the definitional
// oracle: u and v share a component iff each reaches the other. It also
// verifies the partition property and Tarjan's reverse-topological output
// order on random seeded graphs.
func TestSCCsAgainstReachOracle(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(14)
		g := randGraph(rng, n, 0.15+rng.Float64()*0.2)

		comps := g.SCCs(nil)
		compOf := make([]int, n)
		for i := range compOf {
			compOf[i] = -1
		}
		for ci, comp := range comps {
			for _, v := range comp {
				if compOf[v] != -1 {
					t.Fatalf("seed %d: node %d in two components", seed, v)
				}
				compOf[v] = ci
			}
		}
		for v, c := range compOf {
			if c == -1 {
				t.Fatalf("seed %d: node %d in no component", seed, v)
			}
		}

		// Oracle: mutual reachability, computed with the graph's own Reach
		// from singletons (Reach is itself oracle-tested by simple BFS
		// below).
		reach := make([]*Bitset, n)
		for v := 0; v < n; v++ {
			from := NewBitset(n)
			from.Add(v)
			reach[v] = g.Reach(from, nil)
		}
		// Independent naive BFS to validate Reach on the same graph.
		for v := 0; v < n; v++ {
			seen := map[int]bool{v: true}
			queue := []int{v}
			for len(queue) > 0 {
				u := queue[0]
				queue = queue[1:]
				for _, e := range g.Out(u) {
					if !seen[e.To] {
						seen[e.To] = true
						queue = append(queue, e.To)
					}
				}
			}
			if !sameSet(reach[v], seen) {
				t.Fatalf("seed %d: Reach(%d) diverges from naive BFS", seed, v)
			}
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				same := compOf[u] == compOf[v]
				mutual := reach[u].Has(v) && reach[v].Has(u)
				if same != mutual {
					t.Fatalf("seed %d: nodes %d,%d: sameComp=%v mutual-reach=%v", seed, u, v, same, mutual)
				}
			}
		}

		// Reverse topological order: every edge leaving a component lands in
		// a component emitted earlier.
		for v := 0; v < n; v++ {
			for _, e := range g.Out(v) {
				if compOf[e.To] != compOf[v] && compOf[e.To] > compOf[v] {
					t.Fatalf("seed %d: SCC order not reverse-topological (%d→%d)", seed, v, e.To)
				}
			}
		}
	}
}

// TestBitsetFillIntersectNotNextAfter property-tests the three operations
// the CSR assembly path leans on — Fill, IntersectNot, and the closure-free
// iterator NextAfter — against the same map oracle, on random seeded inputs
// including word-boundary sizes.
func TestBitsetFillIntersectNotNextAfter(t *testing.T) {
	sizes := []int{1, 63, 64, 65, 127, 128, 129}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := sizes[rng.Intn(len(sizes))] + rng.Intn(200)

		full := NewBitset(n)
		full.Fill()
		if full.Count() != n {
			t.Fatalf("seed %d: Fill over n=%d has Count %d", seed, n, full.Count())
		}
		for i := 0; i < n; i++ {
			if !full.Has(i) {
				t.Fatalf("seed %d: Fill missing id %d of %d", seed, i, n)
			}
		}
		if c := full.Complement(); !c.Empty() {
			t.Fatalf("seed %d: complement of Fill not empty (tail bits leaked)", seed)
		}

		a, oa := randBitset(rng, n)
		b, ob := randBitset(rng, n)
		diff := a.Clone()
		diff.IntersectNot(b)
		od := map[int]bool{}
		for id := range oa {
			if !ob[id] {
				od[id] = true
			}
		}
		if !sameSet(diff, od) {
			t.Fatalf("seed %d: IntersectNot diverges from oracle", seed)
		}
		// Fill then IntersectNot is exactly Complement — the deadlock-set
		// computation's shape.
		dead := NewBitset(n)
		dead.Fill()
		dead.IntersectNot(a)
		if !sameSet(dead, mapComplement(oa, n)) {
			t.Fatalf("seed %d: Fill∘IntersectNot diverges from complement oracle", seed)
		}

		var got []int
		for id := a.NextAfter(-1); id >= 0; id = a.NextAfter(id) {
			got = append(got, id)
		}
		want := a.Slice()
		if len(got) != len(want) {
			t.Fatalf("seed %d: NextAfter visited %d ids, Slice has %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: NextAfter order diverges at %d: %d vs %d", seed, i, got[i], want[i])
			}
		}
		if a.NextAfter(n) != -1 || a.NextAfter(n+100) != -1 {
			t.Fatalf("seed %d: NextAfter past capacity must return -1", seed)
		}
	}
}

func mapComplement(m map[int]bool, n int) map[int]bool {
	out := map[int]bool{}
	for i := 0; i < n; i++ {
		if !m[i] {
			out[i] = true
		}
	}
	return out
}

// randFairGraph builds a random graph over one to three actions, each unfair
// with probability 1/4, whose enabledness follows its edges: action a is
// enabled at v iff v has an a-edge, and v is deadlocked iff no fair action
// is enabled there. About one node in five has no edges at all, and some
// others keep only unfair edges, so deadlocks, unfair escapes and fair
// cycles all occur.
func randFairGraph(rng *rand.Rand, n int) *Graph {
	fair := make([]bool, 1+rng.Intn(3))
	for a := range fair {
		fair[a] = rng.Intn(4) != 0
	}
	edgeProb := 0.1 + rng.Float64()*0.25
	out := make([][]Edge, n)
	for v := range out {
		if rng.Intn(5) == 0 {
			continue
		}
		for w := 0; w < n; w++ {
			if rng.Float64() < edgeProb {
				out[v] = append(out[v], Edge{Action: rng.Intn(len(fair)), To: w})
			}
		}
	}
	g := newAdjacencyGraph(out, fair)
	for a := range g.enabled {
		g.enabled[a] = NewBitset(n)
	}
	for v := range out {
		for _, e := range out[v] {
			g.enabled[e.Action].Add(v)
		}
	}
	g.dead = g.computeDead(fair)
	return g
}

// naiveFairRun decides whether some SCC of the fair-edge subgraph inside
// within admits a weakly fair run, without Tarjan: components come from
// mutual reachability by map-based search, and a component admits a fair
// run iff it has an internal fair edge and every fair action enabled at all
// of its states has an internal transition.
func naiveFairRun(g *Graph, within *Bitset) bool {
	n := g.NumNodes()
	fairReach := func(v int) map[int]bool {
		seen := map[int]bool{v: true}
		queue := []int{v}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, e := range g.Out(u) {
				if g.FairAction(e.Action) && within.Has(e.To) && !seen[e.To] {
					seen[e.To] = true
					queue = append(queue, e.To)
				}
			}
		}
		return seen
	}
	reach := make([]map[int]bool, n)
	for v := 0; v < n; v++ {
		if within.Has(v) {
			reach[v] = fairReach(v)
		}
	}
	for v := 0; v < n; v++ {
		if !within.Has(v) {
			continue
		}
		comp := map[int]bool{}
		for w := range reach[v] {
			if reach[w][v] {
				comp[w] = true
			}
		}
		internal := map[int]bool{} // actions with a transition inside comp
		for u := range comp {
			for _, e := range g.Out(u) {
				if g.FairAction(e.Action) && comp[e.To] {
					internal[e.Action] = true
				}
			}
		}
		if len(internal) == 0 {
			continue
		}
		admits := true
		for a := 0; a < len(g.fair); a++ {
			if !g.FairAction(a) || internal[a] {
				continue
			}
			everywhere := true
			for u := range comp {
				if !g.Enabled(u, a) {
					everywhere = false
				}
			}
			if everywhere {
				admits = false
			}
		}
		if admits {
			return true
		}
	}
	return false
}

// TestTrappedAgainstCheckEventually checks the one-pass liveness helpers on
// random graphs with random fairness masks, deadlocks and unfair edges:
// Trapped(within) holds exactly the nodes from which a single-state
// CheckEventually towards ¬within fails, and FairCycle(within) finds a
// component exactly when the naive decision finds a fair-run-admitting SCC.
func TestTrappedAgainstCheckEventually(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		g := randFairGraph(rng, n)
		within, _ := randBitset(rng, n)
		if seed%5 == 0 {
			within.Fill()
		}
		outside := within.Complement()

		trapped := g.Trapped(within)
		if !trapped.SubsetOf(within) {
			t.Fatalf("seed %d: Trapped leaves within", seed)
		}
		for v := 0; v < n; v++ {
			from := NewBitset(n)
			from.Add(v)
			escapes := g.CheckEventually(from, outside) == nil
			if trapped.Has(v) == escapes {
				t.Fatalf("seed %d: node %d: trapped=%v but CheckEventually violation=%v",
					seed, v, trapped.Has(v), !escapes)
			}
		}

		comp := g.FairCycle(within)
		if want := naiveFairRun(g, within); (comp != nil) != want {
			t.Fatalf("seed %d: FairCycle found=%v, naive fair SCC=%v", seed, comp != nil, want)
		}
		for _, v := range comp {
			if !trapped.Has(v) {
				t.Fatalf("seed %d: fair cycle node %d not trapped", seed, v)
			}
		}
	}
}
