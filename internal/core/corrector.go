package core

import (
	"context"
	"fmt"

	"detcorr/internal/explore"
	"detcorr/internal/fault"
	"detcorr/internal/guarded"
	"detcorr/internal/ladder"
	"detcorr/internal/state"
)

// Corrector asserts "Z corrects X in C from U" (Section 4.1): component C,
// witness predicate Z, correction predicate X, and the predicate U the
// corrects relation is refined from. When Z equals X the definition reduces
// to Arora & Gouda's closure-and-convergence (the paper's remark in
// Section 4.1).
type Corrector struct {
	Name    string
	C       *guarded.Program
	Z, X, U state.Predicate
}

func (c Corrector) String() string {
	name := c.Name
	if name == "" {
		name = c.C.Name()
	}
	return fmt.Sprintf("corrector %s: %s corrects %s from %s", name, c.Z, c.X, c.U)
}

// detectorView reuses the detector checks for the three shared conditions.
func (c Corrector) detectorView() Detector {
	return Detector{Name: c.Name, D: c.C, Z: c.Z, X: c.X, U: c.U}
}

// Check decides whether C refines 'Z corrects X' from U: the detector
// conditions Safeness, Progress, Stability, plus Convergence — every fair
// maximal computation from U reaches the correction predicate X, and X is
// never falsified once established (along any reachable computation).
func (c Corrector) Check() error {
	return c.CheckCtx(context.Background())
}

// CheckCtx is Check under a context: cancellation stops every tier of the
// ladder with ctx.Err(). It runs the same ladder as Detector.CheckCtx.
func (c Corrector) CheckCtx(ctx context.Context) error {
	return checkComponent(ctx, ladder.Query{Kind: ladder.Corrects, P: c.C, Z: c.Z, X: c.X, U: c.U},
		c.String, func(g *explore.Graph, reach *explore.Bitset) error {
			if err := c.detectorView().checkOn(g, reach, true); err != nil {
				cerr := err.(*ConditionError)
				cerr.Component = c.String()
				return cerr
			}
			return c.checkConvergence(g, reach)
		})
}

// checkConvergence verifies the Convergence condition of 'Z corrects X' on
// the reachable set: (a) no reachable step falsifies X (X is closed along
// every computation), and (b) every fair maximal computation reaches X.
func (c Corrector) checkConvergence(g *explore.Graph, reach *explore.Bitset) error {
	xSet := g.SetOf(c.X)
	var stepErr error
	xReach := xSet.Clone()
	xReach.Intersect(reach)
	xReach.ForEach(func(id int) bool {
		for _, e := range g.Out(id) {
			if !xSet.Has(e.To) {
				stepErr = fmt.Errorf("step %s -> %s (action %s) falsifies X",
					g.State(id), g.State(e.To), g.ActionName(e.Action))
				return false
			}
		}
		return true
	})
	if stepErr != nil {
		return &ConditionError{Component: c.String(), Condition: "Convergence", Cause: stepErr}
	}
	goal := xSet.Clone()
	goal.Intersect(reach)
	if v := g.CheckEventually(reach, goal); v != nil {
		return &ConditionError{Component: c.String(), Condition: "Convergence", Cause: v}
	}
	return nil
}

// CheckFTolerant decides whether C is a nonmasking (respectively fail-safe
// or masking) F-tolerant corrector (Section 4.1, "tolerant corrector",
// combined with Section 2.4):
//
//   - fault.Nonmasking: computations of C ‖ F have a suffix in
//     'Z corrects X'. Under Assumption 2 this holds iff after faults stop C
//     converges from the fault span back to the region from which the
//     fault-free corrector specification holds (the paper's Theorem 4.3 and
//     Theorem 5.5 Part 4 use exactly this argument: Stability and
//     Convergence may be violated by fault actions but never by program
//     actions).
//   - fault.FailSafe: under faults the safety part (Safeness, Stability, and
//     the closure half of Convergence) holds over the span.
//   - fault.Masking: under faults the full corrector specification holds
//     over the span.
func (c Corrector) CheckFTolerant(f fault.Class, kind fault.Kind) error {
	return c.CheckFTolerantCtx(context.Background(), f, kind)
}

// CheckFTolerantCtx is CheckFTolerant under a context; cancellation aborts
// the fault-free check, the span exploration, and the convergence build
// with ctx.Err().
func (c Corrector) CheckFTolerantCtx(ctx context.Context, f fault.Class, kind fault.Kind) error {
	if err := c.CheckCtx(ctx); err != nil {
		return err
	}
	span, err := fault.ComputeSpanCtx(ctx, c.C, f, c.U)
	if err != nil {
		return err
	}
	switch kind {
	case fault.FailSafe:
		if err := c.detectorView().checkOn(span.Graph, span.Reachable, false); err != nil {
			return err
		}
		return c.checkXClosure(span.Graph, span.Reachable)
	case fault.Masking:
		if err := c.detectorView().checkOn(span.Graph, span.Reachable, true); err != nil {
			return err
		}
		return c.checkConvergence(span.Graph, span.Reachable)
	case fault.Nonmasking:
		return c.checkNonmaskingTolerant(ctx, span)
	default:
		return fmt.Errorf("core: unknown tolerance kind %d", int(kind))
	}
}

func (c Corrector) checkXClosure(g *explore.Graph, reach *explore.Bitset) error {
	xSet := g.SetOf(c.X)
	var stepErr error
	xReach := xSet.Clone()
	xReach.Intersect(reach)
	xReach.ForEach(func(id int) bool {
		for _, e := range g.Out(id) {
			if !xSet.Has(e.To) {
				stepErr = fmt.Errorf("step %s -> %s falsifies X", g.State(id), g.State(e.To))
				return false
			}
		}
		return true
	})
	if stepErr != nil {
		return &ConditionError{Component: c.String(), Condition: "Convergence", Cause: stepErr}
	}
	return nil
}

// checkNonmaskingTolerant verifies that C alone, started anywhere in the
// fault span, converges to the set of states from which the fault-free
// corrector specification is satisfied.
func (c Corrector) checkNonmaskingTolerant(ctx context.Context, span *fault.Span) error {
	g, err := explore.SharedCtx(ctx, c.C, span.Predicate, explore.Options{})
	if err != nil {
		return err
	}
	good := c.GoodRegion(g)
	from := g.SetOf(span.Predicate)
	if v := g.CheckEventually(from, good); v != nil {
		return &ConditionError{Component: c.String(), Condition: "Convergence",
			Cause: fmt.Errorf("no suffix satisfying the corrector specification: %w", v)}
	}
	return nil
}

// GoodRegion computes the largest set of nodes from which every computation
// of C satisfies the full corrector specification: the detector good region
// further restricted so that X is never falsified and Convergence holds.
func (c Corrector) GoodRegion(g *explore.Graph) *explore.Bitset {
	region := c.detectorView().GoodRegion(g)
	xSet := g.SetOf(c.X)
	// Remove states with X-falsifying steps, then re-close.
	xRegion := xSet.Clone()
	xRegion.Intersect(region)
	xRegion.ForEach(func(id int) bool {
		for _, e := range g.Out(id) {
			if !xSet.Has(e.To) {
				region.Remove(id)
				break
			}
		}
		return true
	})
	region = g.LargestClosedSubset(region)
	// Prune states from which X is not eventually reached, to a fixpoint:
	// in the closed region such a computation stays in region ∖ X forever,
	// so each round removes every trapped state of region ∖ X and re-closes.
	for {
		cand := region.Clone()
		cand.Subtract(xSet)
		trapped := g.Trapped(cand)
		if trapped.Empty() {
			return region
		}
		region.Subtract(trapped)
		region = g.LargestClosedSubset(region)
	}
}
