package spec

import (
	"testing"

	"detcorr/internal/explore"
	"detcorr/internal/ladder"
	"detcorr/internal/state"
)

// TestCheckConvergesOneBuild pins the cost model: a convergence check is one
// graph compilation, not three. The closure obligations stream over the
// kernel (zero builds) and the liveness obligation goes through the shared
// cache, so a repeated check builds nothing at all. Counter deltas are read
// from the process-global cache statistics, so no t.Parallel here.
func TestCheckConvergesOneBuild(t *testing.T) {
	explore.ResetCache()

	p := counter(t, 5, inc(5))
	before := explore.CacheStats()
	if err := CheckConverges(p, state.True, atLeast(2)); err != nil {
		t.Fatal(err)
	}
	mid := explore.CacheStats()
	if d := mid.Builds - before.Builds; d != 1 {
		t.Errorf("first CheckConverges compiled %d graphs, want exactly 1", d)
	}
	if d := mid.Misses - before.Misses; d != 1 {
		t.Errorf("first CheckConverges missed %d times, want 1", d)
	}
	// The second identical check finds the graph resident and builds nothing;
	// the closure obligations now answer from the cached graph's edges too.
	if err := CheckConverges(p, state.True, atLeast(2)); err != nil {
		t.Fatal(err)
	}
	after := explore.CacheStats()
	if d := after.Builds - mid.Builds; d != 0 {
		t.Errorf("second CheckConverges compiled %d graphs, want 0", d)
	}
	if after.Hits <= mid.Hits {
		t.Error("second CheckConverges must hit the cache")
	}
}

// TestCheckConvergesSliceTier checks the ladder's contract for convergence:
// a slice tier that passes short-circuits the check before any build, one
// that declines leaves the verdict unchanged, and both accelerators are
// asked the convergence query itself before the closure obligations' own
// nested ladders ask them about closure.
func TestCheckConvergesSliceTier(t *testing.T) {
	explore.ResetCache()
	defer explore.ResetCache()
	p := counter(t, 5, dec())
	prover := &fakeTier{tier: ladder.Prove, out: ladder.NotApplicable}
	slicer := &fakeTier{tier: ladder.Slice, out: ladder.NoProof}
	ladder.Attach(p, slicer)
	ladder.Attach(p, prover)
	// x≥2 is not closed under dec, so the convergence verdict fails.
	want := CheckConverges(counter(t, 5, dec()), state.True, atLeast(2))
	if want == nil {
		t.Fatal("reference verdict must fail")
	}
	explore.ResetCache()
	got := CheckConverges(p, state.True, atLeast(2))
	if got == nil || got.Error() != want.Error() {
		t.Fatalf("declining slice tier changed the verdict: got %v, want %v", got, want)
	}
	for _, f := range []*fakeTier{prover, slicer} {
		if len(f.kinds) == 0 || f.kinds[0] != ladder.Converges {
			t.Errorf("%s tier was asked %v, want the convergence query first", f.tier, f.kinds)
		}
	}
	explore.ResetCache()
	slicer.out = ladder.Holds
	before := explore.CacheStats()
	if err := CheckConverges(p, state.True, atLeast(2)); err != nil {
		t.Fatalf("a passing slice tier must short-circuit: %v", err)
	}
	if d := explore.CacheStats().Builds - before.Builds; d != 0 {
		t.Errorf("short-circuited check built %d graphs, want 0", d)
	}
}
