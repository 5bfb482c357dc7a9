// Package ladder is the one verdict ladder every checker in spec and core
// runs. A verdict question (closure, convergence, detects, corrects) goes
// down four tiers, cheapest first, and the first tier that can decide it
// does:
//
//  1. Cache: a graph already in the process-wide exploration cache answers
//     in linear set operations.
//  2. Prove: an exploration-free proof over the program source
//     (internal/prove), charged against the verdict's work budget.
//  3. Slice: the same check on a cone-of-influence slice (internal/flow),
//     which runs its own nested ladder on the same budget.
//  4. Explore: the streaming scan or the full graph build.
//
// The prove and slice tiers are accelerators: they exist only to skip
// exploration, so they may short-circuit only a passing verdict (a full
// proof, a sliced pass) and must decline everything else. The checker's
// own cache and exploration tiers decide the rest, so attaching an
// accelerator never changes a verdict. Accelerators are attached per
// compiled program (Attach), keyed by its pointer: a composed or freshly
// compiled program has none and goes straight from cache to exploration.
//
// Every verdict draws on one work budget (Limit), sized before any work
// from the program's state count, so no accelerator can outspend the
// exploration it exists to avoid.
package ladder

import (
	"context"
	"errors"
	"math"
	"sync"

	"detcorr/internal/guarded"
	"detcorr/internal/state"
)

// Tier is one rung of the ladder, in the order the ladder tries them.
type Tier uint8

const (
	Cache Tier = iota
	Prove
	Slice
	Explore
)

var tierNames = [...]string{"cache", "prove", "slice", "explore"}

func (t Tier) String() string { return tierNames[t] }

// Tiers lists every tier in ladder order.
var Tiers = []Tier{Cache, Prove, Slice, Explore}

// Outcome is what an accelerator tier made of a query: Holds decides it,
// every other outcome is a reason to decline and fall through.
type Outcome uint8

const (
	Holds         Outcome = iota
	NotApplicable         // the tier cannot pose this query (no slice, no such kind, undeclared predicate)
	NoProof               // the tier ran to the end without establishing the query
	OverBudget            // the verdict's work budget ran out mid-attempt
)

var outcomeNames = [...]string{"holds", "not-applicable", "no-proof", "budget"}

func (o Outcome) String() string { return outcomeNames[o] }

// Reasons lists every decline reason.
var Reasons = []Outcome{NotApplicable, NoProof, OverBudget}

// Kind is the verdict question.
type Kind uint8

const (
	Closed    Kind = iota // S is closed in P
	Converges             // S converges to R in P
	Detects               // Z detects X in P from U
	Corrects              // Z corrects X in P from U
)

// Query is one verdict question. Closed reads S; Converges reads S and R;
// Detects and Corrects read Z, X and U.
type Query struct {
	Kind    Kind
	P       *guarded.Program
	S, R    state.Predicate
	Z, X, U state.Predicate
}

// Preds returns the predicates the query reads, in a fixed order.
func (q Query) Preds() []state.Predicate {
	switch q.Kind {
	case Closed:
		return []state.Predicate{q.S}
	case Converges:
		return []state.Predicate{q.S, q.R}
	default:
		return []state.Predicate{q.Z, q.X, q.U}
	}
}

// An Accelerator is a prove or slice tier attached to a program. Try must
// return Holds only when it has established the query for the attached
// program; a disproof is a decline (NoProof), because the checker's own
// tiers must derive the failing verdict and its witness. Try may return
// early once ctx ends; the ladder then returns ctx.Err().
type Accelerator interface {
	Tier() Tier
	Try(ctx context.Context, q Query) Outcome
}

// tiers holds the accelerators attached to one program; nil slots are
// skipped.
type tiers struct {
	prove, slice Accelerator
}

var (
	attachMu sync.RWMutex
	attached = map[*guarded.Program]tiers{}
)

// Attach sets p's accelerator for a.Tier(), replacing any attached before.
// Only the Prove and Slice tiers attach.
func Attach(p *guarded.Program, a Accelerator) {
	attachMu.Lock()
	defer attachMu.Unlock()
	t := attached[p]
	switch a.Tier() {
	case Prove:
		t.prove = a
	case Slice:
		t.slice = a
	default:
		panic("ladder: only the prove and slice tiers attach, not " + a.Tier().String())
	}
	attached[p] = t
}

func accelerators(p *guarded.Program) tiers {
	attachMu.RLock()
	defer attachMu.RUnlock()
	return attached[p]
}

// Work budget calibration (EXPERIMENTS.md #ladder). An accelerator's unit
// of work is one expression node evaluated at an enumeration leaf of the
// refuter, or one rank-synthesis candidate. WorkPerState units per state
// keep every proof that beats exploration on the benchmark families (ring-7
// Legit closure and ring-7 detects) while a losing attempt stays a fraction
// of the exploration it tries to avoid; the measured per-unit and
// per-state costs are tabled there. MinWork keeps tiny programs, whose
// exploration is microseconds anyway, from starving proofs that cost a
// fixed few thousand units.
const (
	WorkPerState = 16
	MinWork      = 1 << 16
)

// Limit is the work budget of one verdict on p: WorkPerState evaluations
// per state of p's schema, at least MinWork. A schema too large to index
// has no exploration to compare against, so its budget is unbounded;
// cancellation still reaches every tier.
func Limit(p *guarded.Program) int64 {
	n, ok := p.Schema().NumStates()
	if !ok || n > math.MaxInt64/WorkPerState {
		return math.MaxInt64
	}
	return max(int64(n)*WorkPerState, MinWork)
}

// Budget counts one verdict's accelerator work against its limit. A budget
// belongs to one verdict, whose tiers run one after another, so it is not
// safe for concurrent use.
type Budget struct {
	limit, spent int64
}

// NewBudget returns a budget of limit units.
func NewBudget(limit int64) *Budget { return &Budget{limit: limit} }

// Charge spends n units. It reports false, spending the rest, when fewer
// than n are left; spent work never exceeds the limit.
func (b *Budget) Charge(n int64) bool {
	if n > b.limit-b.spent {
		b.spent = b.limit
		return false
	}
	b.spent += n
	return true
}

// Spent returns the units charged so far.
func (b *Budget) Spent() int64 { return b.spent }

// Left returns the units still available.
func (b *Budget) Left() int64 { return b.limit - b.spent }

// Limit returns the budget's size.
func (b *Budget) Limit() int64 { return b.limit }

// Trace is what one top-level ladder run did.
type Trace struct {
	Kind Kind
	// Decided reports whether the run reached a verdict; a run cut short
	// by its context ending decided nothing, and DecidedBy is then unset.
	Decided   bool
	DecidedBy Tier
	Declined  []Decline
	Spent     int64 // accelerator work charged, nested ladders included
	Budget    int64
}

// Decline is one accelerator tier falling through.
type Decline struct {
	Tier   Tier
	Reason Outcome
}

// Report collects the traces of the top-level ladders run under one
// context: one per verdict question a request asked. Nested ladders (a
// convergence check's closure obligations, a sliced re-check) charge the
// enclosing verdict's budget and are not traced separately.
type Report struct {
	Traces []Trace
}

type frameKey struct{}

// frame is the ladder state carried in a context.
type frame struct {
	budget *Budget
	report *Report
	nested bool
}

func frameOf(ctx context.Context) frame {
	if f, ok := ctx.Value(frameKey{}).(*frame); ok {
		return *f
	}
	return frame{}
}

func withFrame(ctx context.Context, f frame) context.Context {
	return context.WithValue(ctx, frameKey{}, &f)
}

// WithReport returns a context under which every top-level ladder appends
// its trace to r.
func WithReport(ctx context.Context, r *Report) context.Context {
	f := frameOf(ctx)
	f.report = r
	return withFrame(ctx, f)
}

// WithBudget returns a context whose ladders draw on b instead of opening
// a budget of their own.
func WithBudget(ctx context.Context, b *Budget) context.Context {
	f := frameOf(ctx)
	f.budget = b
	return withFrame(ctx, f)
}

// BudgetFrom returns the budget ctx's ladder draws on, or nil when no
// ladder is running: work outside a ladder (a user-asked proof) is
// unbudgeted.
func BudgetFrom(ctx context.Context) *Budget { return frameOf(ctx).budget }

// Decide runs q down the ladder. cached reports the verdict from an
// already-built graph, if there is one; explore decides the query from
// scratch. Between them run the accelerators attached to q.P, in tier
// order; the first to return Holds decides the query. The whole run, and
// any ladder nested in it, draws on one budget: the one in ctx, or a fresh
// Limit(q.P) one. cached and explore receive the ladder's context, and
// nested checks must run under it to draw on this verdict's budget.
func Decide(ctx context.Context, q Query, cached func(context.Context) (error, bool), explore func(context.Context) error) error {
	f := frameOf(ctx)
	top := !f.nested
	if f.budget == nil {
		f.budget = NewBudget(Limit(q.P))
	}
	f.nested = true
	ctx = withFrame(ctx, f)
	trace := func(func(*Trace)) {}
	if top && f.report != nil {
		rep, at, start := f.report, len(f.report.Traces), f.budget.Spent()
		rep.Traces = append(rep.Traces, Trace{Kind: q.Kind, Budget: f.budget.Limit()})
		trace = func(update func(*Trace)) { update(&rep.Traces[at]) }
		defer trace(func(tr *Trace) { tr.Spent = f.budget.Spent() - start })
	}
	// settle records t as the deciding tier of a run that ended with err,
	// unless err is the context ending: a cancelled run decides nothing.
	settle := func(t Tier, err error) error {
		if cerr := ctx.Err(); cerr == nil || !errors.Is(err, cerr) {
			trace(func(tr *Trace) { tr.Decided, tr.DecidedBy = true, t })
		}
		return err
	}
	if verdict, ok := cached(ctx); ok {
		return settle(Cache, verdict)
	}
	acc := accelerators(q.P)
	for _, a := range []Accelerator{acc.prove, acc.slice} {
		if a == nil {
			continue
		}
		out := a.Try(ctx, q)
		if err := ctx.Err(); err != nil {
			return err
		}
		if out == Holds {
			return settle(a.Tier(), nil)
		}
		trace(func(tr *Trace) { tr.Declined = append(tr.Declined, Decline{Tier: a.Tier(), Reason: out}) })
	}
	return settle(Explore, explore(ctx))
}
