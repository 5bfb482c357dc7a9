package main

import (
	"os"
	"testing"
	"time"

	"detcorr/internal/serve/api"
)

// TestMain lets the test binary serve as the benchmark's child process.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain())
	}
	os.Exit(m.Run())
}

// TestChildLimit runs a known runaway request — ring-5 corrects, which the
// prover tier works on for about a minute — under a short limit: the child
// must be killed at the limit and counted undecided, and the next verdict
// must take no longer than the same verdict did before it.
func TestChildLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs child processes for several seconds")
	}
	quick := childTask{Mode: "eval", Name: "ring3/closure",
		Req: api.Request{Program: ring(3), Check: api.CheckClosure, Invariant: "Legit"}}
	timed := func() time.Duration {
		t.Helper()
		best := time.Duration(1 << 62)
		for i := 0; i < 3; i++ {
			run, err := runChild(quick, coldLimit)
			if err != nil || run.killed || run.res == nil || run.res.Verdict != api.VerdictHolds {
				t.Fatalf("quick verdict: %+v %v", run, err)
			}
			best = min(best, run.wall)
		}
		return best
	}
	before := timed()

	const limit = 2 * time.Second
	runaway := childTask{Mode: "eval", Name: "ring5/corrects",
		Req: api.Request{Program: ring(5), Check: api.CheckCorrects, Z: "Legit", X: "Legit"}}
	run, err := runChild(runaway, limit)
	if err != nil {
		t.Fatal(err)
	}
	if !run.killed || run.res != nil {
		t.Fatalf("runaway not killed at the limit: %+v", run)
	}
	if run.wall < limit || run.wall > limit+2*time.Second {
		t.Fatalf("runaway ended after %v, want just past the %v limit", run.wall, limit)
	}
	var tl tally
	tl.undecidedAt(runaway.Name)
	if tl.failed != 0 || len(tl.undecided) != 1 || tl.answeredShare() != 0 || tl.wrongOrError() {
		t.Fatalf("a killed verdict must count as undecided only: %+v", tl)
	}

	after := timed()
	if after > 3*before+50*time.Millisecond {
		t.Fatalf("the verdict after the kill took %v, before it %v", after, before)
	}
}

// TestReplayCutAtLimit checks the traced replay's own limit: the child
// stops itself at the limit and still reports the spans recorded so far,
// the running prover attempt among them as an open span.
func TestReplayCutAtLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs child processes for several seconds")
	}
	task := childTask{Mode: "replay", Name: "ring5/corrects", LimitMS: 1500,
		Req: api.Request{Program: ring(5), Check: api.CheckCorrects, Z: "Legit", X: "Legit"}}
	run, err := runChild(task, 20*time.Second)
	if err != nil || run.killed || run.res == nil {
		t.Fatalf("replay child: %+v %v", run, err)
	}
	if !run.res.Cut {
		t.Fatalf("replay not cut at the limit: %+v", run.res)
	}
	open := false
	for _, s := range run.res.Spans {
		if s.Name == "prove.attempt" && s.Open {
			open = true
		}
	}
	if !open {
		t.Fatalf("no open prove.attempt span among %d spans", len(run.res.Spans))
	}
}
