package prove

import (
	"context"
	"errors"
	"sync"

	"detcorr/internal/gcl"
	"detcorr/internal/ladder"
)

// Certify attaches the prove tier to a compiled file's program, so the
// verdict ladder (internal/ladder) tries an exploration-free proof before
// exploring. The tier is keyed by the compiled *guarded.Program pointer —
// composed programs (e.g. the result of fault.Compose) are distinct values
// and simply miss it, which is always sound: only a full proof decides
// anything. Files compiled before the AST field existed (or assembled by
// hand) are skipped silently.
func Certify(f *gcl.File) error {
	if f == nil || f.AST == nil {
		return nil
	}
	sys, err := NewSystem(f.AST)
	if err != nil {
		return err
	}
	ladder.Attach(f.Program, &tier{sys: sys, tried: map[string]attempt{}})
	return nil
}

// tier is the prove rung of one program's ladder. It poses closure and the
// detector and corrector bundles; convergence alone is not posed, since
// rank synthesis outspends the graph build on every benchmark family.
type tier struct {
	mu    sync.Mutex // System is not safe for concurrent use; serialize per program
	sys   *System
	tried map[string]attempt // query key -> last decided attempt
}

// attempt is a remembered outcome. A proof or a completed non-proof is
// final; a budget exhaustion is retried only by a verdict with more work
// left than the attempt had.
type attempt struct {
	out  ladder.Outcome
	left int64
}

func (t *tier) Tier() ladder.Tier { return ladder.Prove }

func (t *tier) Try(ctx context.Context, q ladder.Query) ladder.Outcome {
	var kind string
	switch q.Kind {
	case ladder.Closed:
		kind = "closure"
	case ladder.Detects:
		kind = "detector"
	case ladder.Corrects:
		kind = "corrector"
	default:
		return ladder.NotApplicable
	}
	key := kind
	var names []string
	for _, p := range q.Preds() {
		if _, err := t.sys.needPred(p.String()); err != nil {
			return ladder.NotApplicable // an extensional or undeclared predicate
		}
		names = append(names, p.String())
		key += ":" + p.String()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := ladder.BudgetFrom(ctx)
	left := b.Left()
	if a, ok := t.tried[key]; ok && (a.out != ladder.OverBudget || left <= a.left) {
		return a.out
	}
	var proved bool
	err := t.sys.metered(ctx, func() error {
		if kind == "closure" {
			inv, _ := t.sys.needPred(names[0])
			rep, err := t.sys.proveClosureExpr(ctx, CodeClosure, "closure", inv, t.sys.actions)
			proved = err == nil && rep.Verdict == Proved
			return err
		}
		var err error
		proved, err = t.sys.proveComponent(ctx, kind, names[0], names[1], names[2])
		return err
	})
	var out ladder.Outcome
	switch {
	case errors.Is(err, errOverBudget):
		out = ladder.OverBudget
	case err != nil:
		return ladder.NoProof // cancelled: nothing learned, nothing remembered
	case proved:
		out = ladder.Holds
	default:
		out = ladder.NoProof
	}
	t.tried[key] = attempt{out: out, left: left}
	return out
}

// ProveComponent reports whether the full detector ("detector") or
// corrector ("corrector") specification "Z kind X from U" is provable for
// the system without exploration. False means "fall back to the graph
// checks", never "the component fails". The attempt is unbudgeted.
func ProveComponent(sys *System, kind, z, x, u string) bool {
	ok, err := ProveComponentCtx(context.Background(), sys, kind, z, x, u)
	return err == nil && ok
}

// ProveComponentCtx is ProveComponent under a context: cancellation, or
// exhaustion of a ladder budget carried in ctx, stops the attempt at its
// next charged evaluation and returns the reason as an error.
func ProveComponentCtx(ctx context.Context, sys *System, kind, z, x, u string) (bool, error) {
	var proved bool
	err := sys.metered(ctx, func() error {
		var err error
		proved, err = sys.proveComponent(ctx, kind, z, x, u)
		return err
	})
	return proved, err
}

// proveComponent discharges the full detector (or corrector) specification
// by proof: closure of U, safeness and stability of Z => X within U,
// progress (convergence of the region U ∧ X ∧ ¬Z to Z ∨ ¬X), and for
// correctors additionally the closure of X along U-steps and convergence
// of U to X. Every obligation quantifies over all U-states — a superset of
// the reachable states the graph checks inspect — so Proved transfers; any
// weaker verdict reports false and the caller falls back. The error is the
// metered run's stop reason, so a stopped attempt never reports a proof.
func (sys *System) proveComponent(ctx context.Context, kind, z, x, u string) (bool, error) {
	U, err := sys.needPred(u)
	if err != nil {
		return false, nil
	}
	Z, err := sys.needPred(z)
	if err != nil {
		return false, nil
	}
	X, err := sys.needPred(x)
	if err != nil {
		return false, nil
	}
	if rep, err := sys.proveClosureExpr(ctx, CodeClosure, "closure", U, sys.actions); err != nil || rep.Verdict != Proved {
		return false, err
	}
	if rep, err := sys.proveSafeness(ctx, u, z, x, U, Z, X); err != nil || rep.Verdict != Proved {
		return false, err
	}
	// Progress: from U ∧ X ∧ ¬Z every computation reaches Z ∨ ¬X. Closure
	// of U is already discharged above.
	if rep, err := sys.proveConvergenceExpr(ctx, "progress", U, disj(Z, neg(X)), nil, nil, false); err != nil || rep.Verdict != Proved {
		return false, err
	}
	if kind != "corrector" {
		return kind == "detector", nil
	}
	// Convergence, closure half: no U-step falsifies X.
	for i := range sys.actions {
		if err := sys.halted(ctx); err != nil {
			return false, err
		}
		if sys.proveAction(&sys.actions[i], []gcl.Expr{U, X}, X).Verdict != Proved {
			return false, sys.halted(ctx)
		}
	}
	// Convergence, liveness half: U converges to X.
	rep, err := sys.proveConvergenceExpr(ctx, "convergence", U, X, nil, nil, false)
	return err == nil && rep.Verdict == Proved, err
}
