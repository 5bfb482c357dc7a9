package ladder

import (
	"context"
	"errors"
	"math"
	"testing"

	"detcorr/internal/guarded"
	"detcorr/internal/state"
)

func program(t *testing.T, vars ...state.Var) *guarded.Program {
	t.Helper()
	sch, err := state.NewSchema(vars...)
	if err != nil {
		t.Fatal(err)
	}
	p, err := guarded.NewProgram("p", sch)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// stub is an accelerator with a fixed outcome that logs its calls and
// charges a fixed amount of work to the budget in its context.
type stub struct {
	tier Tier
	out  Outcome
	work int64
	log  *[]Tier
}

func (s *stub) Tier() Tier { return s.tier }

func (s *stub) Try(ctx context.Context, _ Query) Outcome {
	*s.log = append(*s.log, s.tier)
	if !BudgetFrom(ctx).Charge(s.work) {
		return OverBudget
	}
	return s.out
}

// TestDecideOrder pins the ladder: cache first, then the accelerators in
// tier order whatever order they were attached in, then exploration; the
// first Holds decides, and the trace names the deciding tier and every
// decline before it.
func TestDecideOrder(t *testing.T) {
	p := program(t, state.BoolVar("b"))
	var log []Tier
	Attach(p, &stub{tier: Slice, out: NotApplicable, log: &log})
	Attach(p, &stub{tier: Prove, out: NoProof, work: 10, log: &log})
	explored := false
	explore := func(context.Context) error { explored = true; return errors.New("violation") }
	uncached := func(context.Context) (error, bool) { return nil, false }

	var rep Report
	ctx := WithReport(context.Background(), &rep)
	q := Query{Kind: Closed, P: p, S: state.True}
	if err := Decide(ctx, q, uncached, explore); err == nil || !explored {
		t.Fatalf("declining accelerators must fall through to exploration (err %v)", err)
	}
	if len(log) != 2 || log[0] != Prove || log[1] != Slice {
		t.Errorf("tiers tried %v, want [prove slice]", log)
	}
	want := Trace{Kind: Closed, Decided: true, DecidedBy: Explore, Spent: 10, Budget: MinWork,
		Declined: []Decline{{Prove, NoProof}, {Slice, NotApplicable}}}
	if len(rep.Traces) != 1 || !sameTrace(rep.Traces[0], want) {
		t.Errorf("trace %+v, want %+v", rep.Traces, want)
	}

	// A slice tier that passes decides; a replaced prove tier is gone.
	log = nil
	Attach(p, &stub{tier: Slice, out: Holds, log: &log})
	explored = false
	if err := Decide(ctx, q, uncached, explore); err != nil || explored {
		t.Fatalf("a passing slice tier must decide (err %v, explored %v)", err, explored)
	}
	if got := rep.Traces[1].DecidedBy; got != Slice {
		t.Errorf("decided by %s, want slice", got)
	}

	// A cached graph decides before any accelerator is asked.
	log = nil
	cached := func(context.Context) (error, bool) { return nil, true }
	if err := Decide(ctx, q, cached, explore); err != nil || len(log) != 0 {
		t.Fatalf("cache tier must decide first (err %v, asked %v)", err, log)
	}
	if got := rep.Traces[2]; !got.Decided || got.DecidedBy != Cache {
		t.Errorf("trace %+v, want decided by cache", got)
	}
}

func sameTrace(a, b Trace) bool {
	if a.Kind != b.Kind || a.Decided != b.Decided || a.DecidedBy != b.DecidedBy || a.Spent != b.Spent || a.Budget != b.Budget || len(a.Declined) != len(b.Declined) {
		return false
	}
	for i := range a.Declined {
		if a.Declined[i] != b.Declined[i] {
			return false
		}
	}
	return true
}

// TestDecideNestedSharesBudget: a ladder run inside another (a sliced
// re-check, a convergence check's closure obligations) draws on the outer
// verdict's budget and leaves no trace of its own.
func TestDecideNestedSharesBudget(t *testing.T) {
	outer := program(t, state.BoolVar("a"))
	inner := program(t, state.BoolVar("b"))
	var log []Tier
	Attach(inner, &stub{tier: Prove, out: NoProof, work: MinWork - 5, log: &log})
	var rep Report
	ctx := WithReport(context.Background(), &rep)
	var innerOut error
	err := Decide(ctx, Query{Kind: Converges, P: outer},
		func(context.Context) (error, bool) { return nil, false },
		func(ctx context.Context) error {
			innerOut = Decide(ctx, Query{Kind: Closed, P: inner},
				func(context.Context) (error, bool) { return nil, false },
				func(context.Context) error { return nil })
			// The inner attempt spent all but 5 units of the shared budget.
			if left := BudgetFrom(ctx).Left(); left != 5 {
				t.Errorf("outer budget has %d units left, want 5", left)
			}
			return innerOut
		})
	if err != nil || innerOut != nil {
		t.Fatal(err, innerOut)
	}
	if len(rep.Traces) != 1 || rep.Traces[0].Spent != MinWork-5 || rep.Traces[0].Kind != Converges {
		t.Errorf("traces %+v, want one converges trace charging %d", rep.Traces, MinWork-5)
	}
}

// TestDecideCancelled: an accelerator that returns because ctx ended makes
// the ladder return ctx.Err(), not fall through to exploration, and a run
// cut short in any tier is traced as decided by none.
func TestDecideCancelled(t *testing.T) {
	p := program(t, state.BoolVar("c"))
	var log []Tier
	Attach(p, &stub{tier: Prove, out: NoProof, log: &log})
	var rep Report
	ctx, cancel := context.WithCancel(WithReport(context.Background(), &rep))
	cancel()
	err := Decide(ctx, Query{Kind: Closed, P: p},
		func(context.Context) (error, bool) { return nil, false },
		func(context.Context) error { t.Fatal("explored after cancellation"); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// Cancelled during exploration, with no accelerator attached.
	ctx, cancel = context.WithCancel(WithReport(context.Background(), &rep))
	err = Decide(ctx, Query{Kind: Closed, P: program(t, state.BoolVar("d"))},
		func(context.Context) (error, bool) { return nil, false },
		func(ctx context.Context) error { cancel(); return ctx.Err() })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(rep.Traces) != 2 {
		t.Fatalf("%d traces, want 2", len(rep.Traces))
	}
	for i, tr := range rep.Traces {
		if tr.Decided {
			t.Errorf("cancelled run %d traced as decided by %s", i, tr.DecidedBy)
		}
	}
}

func TestLimit(t *testing.T) {
	if got := Limit(program(t, state.BoolVar("x"))); got != MinWork {
		t.Errorf("2-state budget = %d, want the floor %d", got, MinWork)
	}
	big := program(t, state.IntVar("x", 1<<12), state.IntVar("y", 1<<12))
	if got := Limit(big); got != WorkPerState<<24 {
		t.Errorf("2^24-state budget = %d, want %d", got, WorkPerState<<24)
	}
}

func TestBudgetCharge(t *testing.T) {
	b := NewBudget(10)
	if !b.Charge(4) || !b.Charge(6) {
		t.Fatal("charges within the limit must succeed")
	}
	if b.Charge(1) || b.Spent() != 10 || b.Left() != 0 {
		t.Errorf("over-limit charge: spent %d left %d, want 10 and 0", b.Spent(), b.Left())
	}
	b = NewBudget(10)
	if b.Charge(11) || b.Spent() != 10 {
		t.Errorf("an oversized charge spends the rest and fails (spent %d)", b.Spent())
	}
	if !NewBudget(math.MaxInt64).Charge(math.MaxInt64) {
		t.Error("the whole of an unbounded budget can be charged")
	}
}
