package spec

import (
	"context"
	"fmt"

	"detcorr/internal/explore"
	"detcorr/internal/guarded"
	"detcorr/internal/ladder"
	"detcorr/internal/state"
)

// ClosureViolation witnesses that a predicate is not closed in a program: an
// action leads from a state satisfying the predicate to one that does not.
type ClosureViolation struct {
	Predicate string
	Action    string
	From, To  state.State
}

// Error implements the error interface.
func (v *ClosureViolation) Error() string {
	return fmt.Sprintf("closure of %q violated by action %q: %s -> %s",
		v.Predicate, v.Action, v.From, v.To)
}

// CheckClosed verifies "S is closed in p" (Section 2.2.1): p refines cl(S)
// from true, i.e. every transition of p from a state satisfying S lands in a
// state satisfying S. The check runs the verdict ladder (internal/ladder):
// a graph already in the process-wide cache (built from S or from true,
// either of which covers every S-state) answers from its precomputed edges;
// otherwise an attached prover may discharge the per-action closure
// obligations, and a sliced pass may decide it; failing all three, a
// streaming kernel scan enumerates the S-states and their immediate
// transitions with early exit at the first violation — one pass, no graph
// assembly.
func CheckClosed(p *guarded.Program, s state.Predicate) error {
	return CheckClosedCtx(context.Background(), p, s)
}

// CheckClosedCtx is CheckClosed under a context: cancellation stops every
// tier of the ladder with ctx.Err().
func CheckClosedCtx(ctx context.Context, p *guarded.Program, s state.Predicate) error {
	return ladder.Decide(ctx, ladder.Query{Kind: ladder.Closed, P: p, S: s},
		func(context.Context) (error, bool) {
			g, ok := closureGraph(p, s)
			if !ok {
				return nil, false
			}
			return CheckClosedOn(g, s), true
		},
		func(ctx context.Context) error { return scanPair(ctx, p, s, s, s.String()) })
}

// closureGraph finds a cached graph that contains every S-state: one built
// from S itself, or the full-space graph.
func closureGraph(p *guarded.Program, s state.Predicate) (*explore.Graph, bool) {
	if g, ok := explore.Peek(p, s, explore.Options{}); ok {
		return g, true
	}
	if g, ok := explore.Peek(p, state.True, explore.Options{}); ok {
		return g, true
	}
	return nil, false
}

// CheckClosedOn verifies "S is closed in p" on an already-built graph of p.
// The graph must contain every state satisfying S (built from an init
// predicate implied by S, typically S itself or true); its edges then cover
// every transition the definition quantifies over. Verdicts for named
// predicates are memoized on the graph.
func CheckClosedOn(g *explore.Graph, s state.Predicate) error {
	check := func() error {
		set := g.SetOf(s)
		var viol error
		set.ForEach(func(id int) bool {
			for _, e := range g.Out(id) {
				if !set.Has(e.To) {
					viol = &ClosureViolation{
						Predicate: s.String(),
						Action:    g.ActionName(e.Action),
						From:      g.State(id),
						To:        g.State(e.To),
					}
					return false
				}
			}
			return true
		})
		return viol
	}
	if !explore.MemoizableName(s.String()) {
		return check()
	}
	v := g.Memoize("closed:"+s.String(), func() any { return check() })
	if v == nil {
		return nil
	}
	return v.(error)
}

// CheckPair verifies the generalized Hoare-triple {S} p {R} (Section 2.2.1):
// p refines the generalized pair ({S},{R}) from true — every transition of p
// from a state satisfying S lands in a state satisfying R. The check streams
// over the compiled kernel with early exit at the first violation.
func CheckPair(p *guarded.Program, s, r state.Predicate) error {
	return CheckPairCtx(context.Background(), p, s, r)
}

// CheckPairCtx is CheckPair under a context; cancellation aborts the kernel
// scan with ctx.Err().
func CheckPairCtx(ctx context.Context, p *guarded.Program, s, r state.Predicate) error {
	return scanPair(ctx, p, s, r, fmt.Sprintf("{%s} %s {%s}", s, p.Name(), r))
}

// scanPair streams the S-states in ascending index order and checks that
// every transition out of them satisfies r, stopping at the first violation.
// The enumeration order matches the historical full-space sweep (ascending
// states, transitions in action order), so the witness is the same one.
func scanPair(ctx context.Context, p *guarded.Program, s, r state.Predicate, label string) error {
	sch := p.Schema()
	var viol error
	_, err := explore.ScanCtx(ctx, p, s, explore.ScanOptions{InitOnly: true}, explore.Scanner{
		Edge: func(from, to state.State, action int, fresh bool) bool {
			if r.Holds(to) {
				return true
			}
			viol = &ClosureViolation{
				Predicate: label,
				Action:    p.Action(action).Name,
				From:      sch.StateAt(from.Index()),
				To:        sch.StateAt(to.Index()),
			}
			return false
		},
	})
	if err != nil {
		return err
	}
	return viol
}

// CheckConverges verifies "S converges to R in p" (Section 2.2.1): p refines
// 'S converges to R' from true. Per the definition this requires cl(S),
// cl(R), and that every (fair, maximal) computation passing through S
// eventually passes through R. The closure obligations stream over the
// kernel (or hit cached graphs); the liveness obligation costs exactly one
// graph build through the shared cache.
func CheckConverges(p *guarded.Program, s, r state.Predicate) error {
	return CheckConvergesCtx(context.Background(), p, s, r)
}

// CheckConvergesCtx is CheckConverges under a context: cancellation aborts
// the closure obligations and the graph build with ctx.Err(). The liveness
// query on the built graph is not interruptible — it is linear in the
// graph. The ladder's cache tier is the liveness graph itself; the prove
// tier does not pose convergence (rank synthesis costs more than the build
// on every benchmark family), so an uncached check goes to the slice tier
// and then explores.
func CheckConvergesCtx(ctx context.Context, p *guarded.Program, s, r state.Predicate) error {
	check := func(ctx context.Context) error {
		if err := CheckClosedCtx(ctx, p, s); err != nil {
			return fmt.Errorf("converges(%s -> %s): %w", s, r, err)
		}
		if err := CheckClosedCtx(ctx, p, r); err != nil {
			return fmt.Errorf("converges(%s -> %s): %w", s, r, err)
		}
		g, err := explore.SharedCtx(ctx, p, s, explore.Options{})
		if err != nil {
			return err
		}
		if v := g.CheckEventually(g.SetOf(s), g.SetOf(r)); v != nil {
			return fmt.Errorf("converges(%s -> %s): %w", s, r, v)
		}
		return nil
	}
	return ladder.Decide(ctx, ladder.Query{Kind: ladder.Converges, P: p, S: s, R: r},
		func(ctx context.Context) (error, bool) {
			if _, ok := explore.Peek(p, s, explore.Options{}); !ok {
				return nil, false
			}
			return check(ctx), true
		},
		check)
}

// LeadsTo is the liveness obligation "whenever P holds, eventually Q holds"
// over every fair maximal computation. The paper's example specification
// SPEC_mem ("data is eventually set to the correct value", Section 3.3) is
// of this shape.
type LeadsTo struct {
	Name string
	P, Q state.Predicate
}

// CheckLeadsTo verifies the obligation for computations of p starting in
// `from` (the graph must have been built from those states). Callers loop
// this over many obligations with the same start set; the reachability
// closure is served from the graph's derived-artifact memo rather than
// recomputed per call.
func CheckLeadsTo(g *explore.Graph, from *explore.Bitset, lt LeadsTo) error {
	reach := g.Reach(from, nil)
	pSet := g.SetOf(lt.P)
	pSet.Intersect(reach)
	qSet := g.SetOf(lt.Q)
	if v := g.CheckEventually(pSet, qSet); v != nil {
		return fmt.Errorf("leads-to %q (%s ~> %s): %w", lt.Name, lt.P, lt.Q, v)
	}
	return nil
}
