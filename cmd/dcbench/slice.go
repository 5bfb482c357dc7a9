package main

// The -slice sweep measures the cone-of-influence pre-pass end to end: for
// each composed benchmark system it runs the same verdict twice — once on a
// fresh, uncertified compile (no slice tier is attached to it, so the check
// explores the full product space) and once on a flow-certified compile
// (the slicer serves the verdict from the cone's state space) — and prints
// one JSON line per system with both wall times and state counts. The
// verdicts are asserted identical; a divergence fails the run. `make
// bench-slice` records the sweep in BENCH_slice.json.

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"detcorr/internal/explore"
	"detcorr/internal/explore/difftest"
	"detcorr/internal/flow"
	"detcorr/internal/gcl"
	"detcorr/internal/spec"
	"detcorr/internal/state"
)

// sliceRow is one benchmark line of BENCH_slice.json.
type sliceRow struct {
	Bench        string  `json:"bench"`
	Check        string  `json:"check"`
	Target       string  `json:"target"`
	FullStates   float64 `json:"full_states"`
	SlicedStates float64 `json:"sliced_states"`
	FullMS       float64 `json:"full_ms"`
	SlicedMS     float64 `json:"sliced_ms"`
	Speedup      float64 `json:"speedup"`
	Verdict      string  `json:"verdict"`
}

// sliceBench is one composed system with the verdict to measure on it.
type sliceBench struct {
	name   string
	src    string
	check  string // "converges" or "closed"
	target string
}

// runSlice sweeps the slicing benchmarks. n sizes the watched token ring
// (n machines with counters 0..n-1, plus the watchdog detector).
func runSlice(n int) error {
	benches := []sliceBench{
		{"ring_watched_" + fmt.Sprint(n), difftest.RingWatchedSource(n, n), "converges", "Legit"},
		{"memaccess_pair", difftest.MemaccessPairSource, "closed", "FS"},
	}
	enc := json.NewEncoder(os.Stdout)
	for _, b := range benches {
		row, err := sliceMeasure(b)
		if err != nil {
			return fmt.Errorf("%s: %w", b.name, err)
		}
		if err := enc.Encode(row); err != nil {
			return err
		}
	}
	return nil
}

func sliceMeasure(b sliceBench) (*sliceRow, error) {
	run := func(certify bool) (time.Duration, error, *gcl.File) {
		f, err := gcl.ParseAndCompile(b.src)
		if err != nil {
			return 0, err, nil
		}
		if certify {
			if err := flow.Certify(f); err != nil {
				return 0, err, nil
			}
		}
		p, ok := f.Pred(b.target)
		if !ok {
			return 0, fmt.Errorf("no predicate %q", b.target), nil
		}
		start := time.Now()
		var verdict error
		switch b.check {
		case "converges":
			verdict = spec.CheckConverges(f.Program, state.True, p)
		case "closed":
			verdict = spec.CheckClosed(f.Program, p)
		default:
			return 0, fmt.Errorf("unknown check %q", b.check), nil
		}
		dur := time.Since(start)
		// Release the graphs so the two measurements never share cache
		// residency (they use distinct program pointers regardless).
		explore.EvictProgram(f.Program)
		return dur, verdict, f
	}

	fullDur, fullVerdict, f := run(false)
	if f == nil {
		return nil, fullVerdict
	}
	slicedDur, slicedVerdict, sf := run(true)
	if sf == nil {
		return nil, slicedVerdict
	}
	if errString(fullVerdict) != errString(slicedVerdict) {
		return nil, fmt.Errorf("verdicts diverge: full %v, sliced %v", fullVerdict, slicedVerdict)
	}

	row := &sliceRow{
		Bench:   b.name,
		Check:   b.check,
		Target:  b.target,
		FullMS:  float64(fullDur.Microseconds()) / 1e3,
		Speedup: float64(fullDur) / float64(slicedDur),
		Verdict: verdictWord(fullVerdict),
	}
	row.SlicedMS = float64(slicedDur.Microseconds()) / 1e3
	if sl, err := flow.SliceFile(sf, b.target); err == nil {
		row.FullStates = sl.FullStates
		row.SlicedStates = sl.SlicedStates
	}
	return row, nil
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

func verdictWord(err error) string {
	if err == nil {
		return "holds"
	}
	return "fails"
}
