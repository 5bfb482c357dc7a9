package prove

import (
	"context"
	"errors"

	"detcorr/internal/ladder"
)

// errOverBudget stops a metered run whose ladder budget ran out.
var errOverBudget = errors.New("prove: the verdict's work budget ran out")

// pollEvery is how many charged units pass between context polls.
const pollEvery = 256

// meter is the engine's cost account for one metered run: every expression
// evaluation at an enumeration leaf is charged its node count (exprSize),
// every rank-synthesis candidate one unit, to the ladder budget carried in
// the run's context, if any; the context is polled every pollEvery units.
// The first failed charge stops the run for good; everything after it
// declines at once.
type meter struct {
	ctx    context.Context
	budget *ladder.Budget // nil: unbudgeted (a user-asked proof)
	tick   int
	err    error // why the run stopped: ctx.Err() or errOverBudget
}

// charge spends n units and reports whether the run may go on.
func (m *meter) charge(n int) bool {
	if m == nil {
		return true
	}
	if m.err != nil {
		return false
	}
	if m.budget != nil && !m.budget.Charge(int64(n)) {
		m.err = errOverBudget
		return false
	}
	if m.tick += n; m.tick >= pollEvery {
		m.tick = 0
		if err := m.ctx.Err(); err != nil {
			m.err = err
			return false
		}
	}
	return true
}

// stopped reports whether the run has stopped.
func (m *meter) stopped() bool { return m != nil && m.err != nil }

// metered runs one prover entry point under a fresh meter for ctx. A run
// that stopped returns the stop reason, whatever run made of its truncated
// search, so a stopped run never reports a verdict.
func (sys *System) metered(ctx context.Context, run func() error) error {
	prev := sys.m
	m := &meter{ctx: ctx, budget: ladder.BudgetFrom(ctx)}
	sys.m = m
	defer func() { sys.m = prev }()
	err := run()
	if m.err != nil {
		return m.err
	}
	return err
}

// halted returns why the current run must stop before its next
// obligation: its meter stopped, or ctx ended.
func (sys *System) halted(ctx context.Context) error {
	if sys.m.stopped() {
		return sys.m.err
	}
	return ctx.Err()
}
