package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	pct, v, ok := tailPercentile(xs, 10)
	if !ok || v != 90 || pct != 90 {
		t.Fatalf("100 samples: got p%v = %v (ok %v), want p90 = 90", pct, v, ok)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != 10 {
		t.Fatalf("%d samples beyond the tail value, want 10", beyond)
	}
	if _, v, ok := tailPercentile(xs[:11], 10); !ok || v != 90 {
		t.Fatalf("11 samples: got %v (ok %v), want the lowest, 90", v, ok)
	}
	if _, _, ok := tailPercentile(xs[:10], 10); ok {
		t.Fatal("10 samples cannot leave 10 beyond any percentile")
	}
	// tailOf caps the rule at p99 once there are enough samples.
	big := make([]float64, 5000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if pct, v := tailOf(big); pct != 99 || math.Abs(v-4950) > 1 {
		t.Fatalf("5000 samples: tailOf = p%v %v, want p99 near 4950", pct, v)
	}
}

func TestHarrellDavisQuantile(t *testing.T) {
	// On evenly spread samples it agrees with the plain quantile.
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if m := hdQuantile(xs, 0.5); math.Abs(m-50) > 1e-6 {
		t.Fatalf("median of 1..99 = %v, want 50", m)
	}
	if q := hdQuantile(xs, 0.9); math.Abs(q-90) > 0.5 {
		t.Fatalf("p90 of 1..99 = %v, want about 90", q)
	}
	// Two clusters with the gap at the median: moving one sample across
	// the gap moves the order-statistic median by half the gap, the
	// Harrell-Davis median by far less.
	var two []float64
	for i := 0; i < 30; i++ {
		two = append(two, 4+float64(i)/100, 7+float64(i)/100)
	}
	moved := append([]float64(nil), two...)
	moved[0] = 7.5 // one low sample now lands above the gap
	hdShift := hdQuantile(moved, 0.5) - hdQuantile(two, 0.5)
	osShift := median(moved) - median(two)
	if osShift < 1 || hdShift > osShift/2 {
		t.Fatalf("median shift %v, Harrell-Davis shift %v: want the latter much smaller", osShift, hdShift)
	}
	if v := regIncBeta(0.5, 3, 3); math.Abs(v-0.5) > 1e-12 {
		t.Fatalf("I_0.5(3,3) = %v, want 0.5", v)
	}
	if v := regIncBeta(0.3, 2, 5); math.Abs(v-0.579825) > 1e-6 {
		t.Fatalf("I_0.3(2,5) = %v, want 0.579825", v)
	}
}

func TestCappedGeomeanCountsUndecidedAtLimit(t *testing.T) {
	const limit = 1000.0
	// -1 is an undecided verdict; 1e6 overran the limit. Both count as
	// the limit, so the mean is that of {1, 100, 1000, 1000}.
	got := cappedGeomean([]float64{1, 100, -1, 1e6}, limit, 0.001)
	if want := 100.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("geomean = %v, want %v", got, want)
	}
	// Undecided verdicts never read faster than the limit.
	if g := cappedGeomean([]float64{-1, -1}, limit, 0.001); math.Abs(g-limit) > 1e-9 {
		t.Fatalf("all undecided: geomean = %v, want the limit", g)
	}
	if g := cappedGeomean([]float64{0, 1}, limit, 0.01); math.Abs(g-0.1) > 1e-12 {
		t.Fatalf("floored geomean = %v, want 0.1", g)
	}
}

func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	s := openLoopSample{due: t0, sent: t0.Add(3 * time.Millisecond), done: t0.Add(5 * time.Millisecond)}
	if s.latency() != 5*time.Millisecond {
		t.Fatalf("latency = %v, want 5ms: it counts from the due time, generator lag included", s.latency())
	}
	if s.lag() != 3*time.Millisecond {
		t.Fatalf("lag = %v, want 3ms", s.lag())
	}
	early := openLoopSample{due: t0, sent: t0.Add(-time.Millisecond), done: t0.Add(time.Millisecond)}
	if early.lag() != 0 {
		t.Fatalf("a request sent early has no lag, got %v", early.lag())
	}

	// A stall of 20 ms on one request delays everything queued behind it:
	// every later request is charged the wait from its own due time.
	var steady, stalled []openLoopSample
	for i := 0; i < 40; i++ {
		due := t0.Add(time.Duration(i) * time.Millisecond)
		steady = append(steady, openLoopSample{due: due, sent: due, done: due.Add(time.Millisecond)})
		done := due.Add(time.Millisecond)
		if i >= 10 {
			// served one after another behind the stall, 1 ms each
			done = t0.Add(time.Duration(30+i-9) * time.Millisecond)
		}
		stalled = append(stalled, openLoopSample{due: due, sent: due, done: done})
	}
	if g := lateGrowth(steady); g != 0 {
		t.Fatalf("flat lateness reported as a growing backlog: %v", g)
	}
	if g := lateGrowth(stalled); g < 10*time.Millisecond {
		t.Fatalf("lateness growing with the index reads as growth %v", g)
	}
	// A stall inside one of four windows leaves the windowed p99 at the
	// other windows' value.
	windows := append([]openLoopSample(nil), steady...)
	windows[5].done = windows[5].due.Add(50 * time.Millisecond)
	p99 := func(lat []float64) float64 { return percentile(lat, 99) }
	if p := windowedStat(windows, 4, p99); p != 1 {
		t.Fatalf("windowed p99 = %vms, want 1ms: one stalled window must not move it", p)
	}
	if p := windowedStat(windows, 1, p99); p != 50 {
		t.Fatalf("single-window p99 = %vms, want the stall's 50ms", p)
	}
	if got := stalled[20].latency(); got != 21*time.Millisecond {
		t.Fatalf("request 20 latency = %v, want 21ms (due at 20ms, done at 41ms)", got)
	}
}

func TestSpanSelfTimeNeverNegative(t *testing.T) {
	// Children that overlap each other and run past their parent.
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 50},
		{ID: 3, Parent: 1, Start: 40, End: 120},
		{ID: 4, Parent: 3, Start: 60, End: 70},
	}
	self := selfTimes(spans)
	if self[1] != 10 {
		t.Fatalf("parent self = %v, want 10 (100 minus the union [10,100])", self[1])
	}
	if self[3] != 70 {
		t.Fatalf("child self = %v, want 70", self[3])
	}

	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var ss []span
		n := 1 + r.Intn(12)
		for i := 1; i <= n; i++ {
			parent := 0
			if i > 1 {
				parent = r.Intn(i) // 0 or an earlier span
			}
			a := r.Int63n(1000)
			ss = append(ss, span{ID: i, Parent: parent, Start: a, End: a + r.Int63n(500)})
		}
		for _, s := range ss {
			if d := selfTimes(ss)[s.ID]; d < 0 || d > s.dur() {
				t.Fatalf("trial %d: span %d self time %v outside [0, %v]", trial, s.ID, d, s.dur())
			}
		}
	}
}

func TestRecorderNestsAndCutsOpenSpans(t *testing.T) {
	rec := newRecorder()
	rec.setRequest("r")
	rec.enter("request")
	rec.do("gcl.parse", func() {})
	rec.enter("prove.attempt")
	snap := rec.snapshot()
	if len(snap) != 3 {
		t.Fatalf("%d spans, want 3", len(snap))
	}
	if snap[1].Parent != snap[0].ID || snap[2].Parent != snap[0].ID {
		t.Fatalf("parents wrong: %+v", snap)
	}
	if snap[1].Open || !snap[0].Open || !snap[2].Open {
		t.Fatalf("only the spans still running are open: %+v", snap)
	}
	for _, d := range selfTimes(snap) {
		if d < 0 {
			t.Fatalf("negative self time in a cut snapshot: %v", d)
		}
	}
}
