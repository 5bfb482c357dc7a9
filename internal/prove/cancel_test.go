package prove_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"detcorr/internal/explore/difftest"
	"detcorr/internal/gcl"
	"detcorr/internal/ladder"
	"detcorr/internal/prove"
)

// cancelAfterCharge is a context that reports itself cancelled as soon as
// the budget it watches has been charged, so a test can cancel a proof
// after exactly its first charged evaluation without any timing.
type cancelAfterCharge struct {
	context.Context
	b *ladder.Budget
}

func (c cancelAfterCharge) Err() error {
	if c.b.Spent() > 0 {
		return context.Canceled
	}
	return nil
}

// TestProveComponentCancelled runs the ring-5 corrector proof — a
// runaway of more than a minute unbudgeted — under a context cancelled
// after its first charged evaluation. The budget is unlimited and only
// counts: the proof must return ctx.Err() within one context-poll interval
// of further evaluations, plus the one leaf that crosses it.
func TestProveComponentCancelled(t *testing.T) {
	f, err := gcl.ParseAndCompile(difftest.RingSource(5, 5))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := prove.NewSystem(f.AST)
	if err != nil {
		t.Fatal(err)
	}
	b := ladder.NewBudget(math.MaxInt64)
	ctx := ladder.WithBudget(cancelAfterCharge{context.Background(), b}, b)
	ok, err := prove.ProveComponentCtx(ctx, sys, "corrector", "Legit", "Legit", "true")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ProveComponentCtx = %v, %v; want context.Canceled", ok, err)
	}
	if ok {
		t.Error("a cancelled proof reported success")
	}
	// 256 units between polls, and no leaf of this system costs more.
	const bound = 2 * 256
	if b.Spent() == 0 || b.Spent() > bound {
		t.Errorf("spent %d units before stopping, want 1..%d", b.Spent(), bound)
	}
}

// TestProveBudgetStops runs the same proof under a small ladder budget: it
// must stop at the budget, never spend past it, and report no proof.
func TestProveBudgetStops(t *testing.T) {
	f, err := gcl.ParseAndCompile(difftest.RingSource(5, 5))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := prove.NewSystem(f.AST)
	if err != nil {
		t.Fatal(err)
	}
	b := ladder.NewBudget(ladder.MinWork)
	ok, err := prove.ProveComponentCtx(ladder.WithBudget(context.Background(), b), sys, "corrector", "Legit", "Legit", "true")
	if ok || err == nil {
		t.Fatalf("ProveComponentCtx = %v, %v; want an over-budget stop", ok, err)
	}
	if b.Spent() != b.Limit() {
		t.Errorf("spent %d of %d: a stopped run spends exactly its budget", b.Spent(), b.Limit())
	}
}
