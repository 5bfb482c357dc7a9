package spec

import (
	"context"
	"errors"
	"strings"
	"testing"

	"detcorr/internal/explore"
	"detcorr/internal/ladder"
	"detcorr/internal/state"
)

// TestClosureViolationWitness pins the witness a failing CheckClosed
// returns: the offending action by name and the exact from/to states, which
// downstream error messages and the dctl output lean on.
func TestClosureViolationWitness(t *testing.T) {
	p := counter(t, 5, dec())
	err := CheckClosed(p, atLeast(2))
	if err == nil {
		t.Fatal("x≥2 is not closed under dec")
	}
	var cv *ClosureViolation
	if !errors.As(err, &cv) {
		t.Fatalf("error is not a ClosureViolation: %v", err)
	}
	if cv.Predicate != "x≥k" {
		t.Errorf("Predicate = %q, want the predicate's name", cv.Predicate)
	}
	if cv.Action != "dec" {
		t.Errorf("Action = %q, want dec", cv.Action)
	}
	// The only violating step from x≥2 is the boundary one: 2 -> 1.
	if got := cv.From.Get(0); got != 2 {
		t.Errorf("From state has x=%d, want the boundary state x=2", got)
	}
	if got := cv.To.Get(0); got != 1 {
		t.Errorf("To state has x=%d, want x=1", got)
	}
}

// TestClosureViolationFormatting pins the rendered message: predicate,
// action, and both witness states must all appear.
func TestClosureViolationFormatting(t *testing.T) {
	sch := counter(t, 3, dec()).Schema()
	v := &ClosureViolation{
		Predicate: "S",
		Action:    "pageout",
		From:      sch.StateAt(2),
		To:        sch.StateAt(1),
	}
	msg := v.Error()
	for _, want := range []string{`closure of "S"`, `violated by action "pageout"`, v.From.String(), v.To.String()} {
		if !strings.Contains(msg, want) {
			t.Errorf("message %q missing %q", msg, want)
		}
	}
}

// fakeTier is an accelerator with a fixed outcome that records the kinds
// of query it was asked.
type fakeTier struct {
	tier  ladder.Tier
	out   ladder.Outcome
	calls int
	kinds []ladder.Kind
}

func (f *fakeTier) Tier() ladder.Tier { return f.tier }

func (f *fakeTier) Try(_ context.Context, q ladder.Query) ladder.Outcome {
	f.calls++
	f.kinds = append(f.kinds, q.Kind)
	return f.out
}

// TestCheckClosedProveTier checks the prove tier's contract on the ladder:
// a tier that claims a proof short-circuits the check, one that declines
// leaves the verdict to enumeration, a program without the tier gets the
// enumeration verdict, and a cached graph decides before the tier runs.
func TestCheckClosedProveTier(t *testing.T) {
	explore.ResetCache()
	defer explore.ResetCache()
	p := counter(t, 5, dec())
	// A tier that declines everything: CheckClosed must still find the
	// violation by enumeration.
	declining := &fakeTier{tier: ladder.Prove, out: ladder.NoProof}
	ladder.Attach(p, declining)
	if err := CheckClosed(p, atLeast(2)); err == nil {
		t.Fatal("a declining tier must not change the verdict")
	}
	if declining.calls != 1 {
		t.Errorf("declining tier ran %d times, want 1", declining.calls)
	}
	// A tier that (unsoundly, for the test) claims success replaces it: the
	// check must return immediately with nil. This pins the short-circuit
	// shape; soundness of the real prover is internal/prove's and
	// difftest's job.
	proving := &fakeTier{tier: ladder.Prove, out: ladder.Holds}
	ladder.Attach(p, proving)
	if err := CheckClosed(p, atLeast(2)); err != nil {
		t.Fatalf("a proving tier must short-circuit: %v", err)
	}
	if proving.calls != 1 {
		t.Errorf("tier ran %d times, want 1", proving.calls)
	}
	// Tiers belong to one program: an identical program without one gets
	// the enumeration verdict.
	if err := CheckClosed(counter(t, 5, dec()), atLeast(2)); err == nil {
		t.Fatal("a program without the tier must get the enumeration verdict")
	}
	// The cache tier comes first: with the full-space graph resident the
	// graph decides, and the (unsound) tier is never asked.
	if _, err := explore.Shared(p, state.True, explore.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := CheckClosed(p, atLeast(2)); err == nil {
		t.Fatal("a cached graph must decide before the prove tier")
	}
	if proving.calls != 1 {
		t.Errorf("tier ran %d times with the graph cached, want still 1", proving.calls)
	}
}
