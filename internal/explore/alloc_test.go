package explore_test

import (
	"runtime"
	"testing"

	"detcorr/internal/explore"
	"detcorr/internal/state"
	"detcorr/internal/tokenring"
)

// bytesPerRun reports the heap bytes one call of f allocates, averaged over
// runs calls after one warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestFairPassAllocation bounds what FairCycle and Trapped allocate on the
// ring-5 illegitimate set, whose fair view splits into thousands of
// components: a few n-bit sets and no per-component allocation. The SCC
// decomposition itself is memoized per `within` on the graph, so after the
// warm-up call the measurement covers the per-component pass alone.
func TestFairPassAllocation(t *testing.T) {
	sys := tokenring.MustNew(5, 5)
	g, err := explore.Build(sys.Ring, state.True, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ill := g.SetOf(state.Not(sys.Legitimate))
	n := g.NumNodes()
	comps := len(g.SCCs(ill))
	if comps < n/8 {
		t.Fatalf("ring-5 illegitimate set has %d SCCs; the bound below needs many", comps)
	}
	// Two bitsets of n/8 bytes and their headers (nothing is trapped, so
	// Trapped's work stack stays empty); one n/8-byte set per component
	// would be comps·n/8.
	limit := uint64(4*(n/8) + 1024)
	if got := bytesPerRun(10, func() {
		if g.FairCycle(ill) != nil {
			t.Fatal("ring-5 has no fair illegitimate cycle")
		}
	}); got > limit {
		t.Errorf("FairCycle allocates %d B per call over %d SCCs; limit %d B (n=%d)", got, comps, limit, n)
	}
	if got := bytesPerRun(10, func() {
		if !g.Trapped(ill).Empty() {
			t.Fatal("ring-5 converges: no illegitimate state is trapped")
		}
	}); got > limit {
		t.Errorf("Trapped allocates %d B per call over %d SCCs; limit %d B (n=%d)", got, comps, limit, n)
	}
}
