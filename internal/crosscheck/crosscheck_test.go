package crosscheck

import (
	"fmt"
	"testing"

	"detcorr/internal/core"
	"detcorr/internal/explore"
	"detcorr/internal/fault"
	"detcorr/internal/gcl"
	"detcorr/internal/guarded"
	"detcorr/internal/runtime"
	"detcorr/internal/spec"
	"detcorr/internal/state"
)

const trials = 60

func TestGeneratorDeterministic(t *testing.T) {
	a, err := Generate(7, GenConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(7, GenConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Same seed, same transition relation.
	err = a.Schema().ForEachState(func(s state.State) bool {
		sa := a.Successors(s)
		sb := b.Successors(s)
		if len(sa) != len(sb) {
			t.Fatalf("successor counts differ at %s", s)
		}
		for i := range sa {
			if !sa[i].To.Equal(sb[i].To) {
				t.Fatalf("successors differ at %s", s)
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSpanIsAValidFaultSpan: for random programs, random fault classes and
// random invariants, the computed span always satisfies the definitional
// conditions of Section 2.3 (S ⇒ T, T closed in p, T closed in F).
func TestSpanIsAValidFaultSpan(t *testing.T) {
	for seed := int64(0); seed < trials; seed++ {
		p, err := Generate(seed, GenConfig{})
		if err != nil {
			t.Fatal(err)
		}
		fprog, err := Generate(seed+1000, GenConfig{Actions: 2})
		if err != nil {
			t.Fatal(err)
		}
		f := fault.NewClass("rf", renameAll(fprog.Actions(), "f")...)
		s := RandomPredicate(seed, p.Schema())
		span, err := fault.ComputeSpan(p, f, s)
		if err != nil {
			t.Fatal(err)
		}
		if err := fault.CheckSpan(p, f, s, span.Predicate); err != nil {
			t.Errorf("seed %d: computed span violates the span definition: %v", seed, err)
		}
	}
}

// TestSpanMonotone: enlarging the initial predicate can only enlarge the
// span.
func TestSpanMonotone(t *testing.T) {
	for seed := int64(0); seed < trials; seed++ {
		p, err := Generate(seed, GenConfig{})
		if err != nil {
			t.Fatal(err)
		}
		f := fault.NewClass("none")
		s1 := RandomPredicate(seed, p.Schema())
		s2 := RandomPredicate(seed+5000, p.Schema())
		both := state.Or(s1, s2)
		spanS1, err := fault.ComputeSpan(p, f, s1)
		if err != nil {
			t.Fatal(err)
		}
		spanBoth, err := fault.ComputeSpan(p, f, both)
		if err != nil {
			t.Fatal(err)
		}
		err = p.Schema().ForEachState(func(st state.State) bool {
			if spanS1.Predicate.Holds(st) && !spanBoth.Predicate.Holds(st) {
				t.Errorf("seed %d: span not monotone at %s", seed, st)
				return false
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestAddFailSafeNeverViolates: the fail-safe transformation of any random
// program never takes a step that violates the safety specification it was
// built for — from any state whatsoever (the metatheorem behind
// Theorem 3.4).
func TestAddFailSafeNeverViolates(t *testing.T) {
	for seed := int64(0); seed < trials; seed++ {
		p, err := Generate(seed, GenConfig{})
		if err != nil {
			t.Fatal(err)
		}
		// Random step-safety spec: the transition predicate "some chosen
		// variable is raised" is forbidden.
		v := int(seed) % p.Schema().NumVars()
		sspec := spec.NeverStep(fmt.Sprintf("v%d never raised", v), func(from, to state.State) bool {
			return !from.Bool(v) && to.Bool(v)
		})
		synth := core.AddFailSafe(p, sspec)
		g, err := explore.Build(synth, state.True, explore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if viol := spec.CheckSafety(g, g.All(), sspec); viol != nil {
			t.Errorf("seed %d: synthesized fail-safe program violates its spec: %v", seed, viol)
		}
	}
}

// TestClosedSetsStayClosedInSimulation: whenever the checker certifies that
// a predicate is closed, no simulated run ever escapes it. This
// cross-validates the closure checker against the runtime semantics.
func TestClosedSetsStayClosedInSimulation(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < trials; seed++ {
		p, err := Generate(seed, GenConfig{})
		if err != nil {
			t.Fatal(err)
		}
		pred := RandomPredicate(seed+333, p.Schema())
		if spec.CheckClosed(p, pred) != nil {
			continue // not closed; nothing to validate
		}
		checked++
		// Simulate from every state satisfying the predicate.
		err = p.Schema().ForEachState(func(s state.State) bool {
			if !pred.Holds(s) {
				return true
			}
			eng, err := runtime.New(p, runtime.Config{Seed: seed, MaxSteps: 60, KeepTrace: true})
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run(s)
			if err != nil {
				t.Fatal(err)
			}
			for i, st := range res.Trace {
				if !pred.Holds(st) {
					t.Fatalf("seed %d: closed set escaped at trace step %d: %s", seed, i, st)
				}
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if checked == 0 {
		t.Skip("no closed random predicates in this seed range")
	}
}

// TestConvergenceAgreesWithRoundRobin: when the checker certifies that
// every fair maximal computation reaches a goal, the (deterministically
// fair) round-robin scheduler must reach it within |states|·|actions|+1
// steps — a fair run of a deterministic program repeats a (state,
// scheduler-index) pair within that bound, and a goal-avoiding cycle would
// contradict the checker.
func TestConvergenceAgreesWithRoundRobin(t *testing.T) {
	agreements := 0
	for seed := int64(0); seed < trials; seed++ {
		p, err := Generate(seed, GenConfig{})
		if err != nil {
			t.Fatal(err)
		}
		goal := RandomPredicate(seed+777, p.Schema())
		g, err := explore.Build(p, state.True, explore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if v := g.CheckEventually(g.All(), g.SetOf(goal)); v != nil {
			continue // checker says some fair run avoids the goal
		}
		agreements++
		n, _ := p.Schema().NumStates()
		bound := int(n)*p.NumActions() + 1
		err = p.Schema().ForEachState(func(s state.State) bool {
			eng, err := runtime.New(p, runtime.Config{
				Seed: seed, MaxSteps: bound, Policy: runtime.RoundRobinPolicy,
			}, &runtime.EventuallyMonitor{Goal: goal})
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Violations) > 0 {
				t.Fatalf("seed %d: checker certified convergence but round-robin run from %s missed the goal within %d steps",
					seed, s, bound)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if agreements == 0 {
		t.Skip("no converging instances in this seed range")
	}
}

// TestSafetyViolationsAreReproducible: when the checker reports a safety
// violation with a trace, replaying that trace against the program's
// transition relation confirms every step.
func TestSafetyViolationsAreReproducible(t *testing.T) {
	found := 0
	for seed := int64(0); seed < trials; seed++ {
		p, err := Generate(seed, GenConfig{})
		if err != nil {
			t.Fatal(err)
		}
		bad := RandomPredicate(seed+111, p.Schema())
		g, err := explore.Build(p, state.True, explore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		viol := spec.CheckSafety(g, g.All(), spec.NeverState("bad", bad))
		if viol == nil {
			continue
		}
		found++
		trace := viol.Trace
		if len(trace) == 0 {
			t.Fatalf("seed %d: violation without a trace", seed)
		}
		for i := 1; i < len(trace); i++ {
			if !hasTransition(p, trace[i-1], trace[i]) {
				t.Fatalf("seed %d: counterexample step %d is not a program transition", seed, i)
			}
		}
		if !bad.Holds(trace[len(trace)-1]) {
			t.Fatalf("seed %d: counterexample does not end in a bad state", seed)
		}
	}
	if found == 0 {
		t.Skip("no safety violations in this seed range")
	}
}

func hasTransition(p *guarded.Program, from, to state.State) bool {
	for _, tr := range p.Successors(from) {
		if tr.To.Equal(to) {
			return true
		}
	}
	return false
}

func renameAll(actions []guarded.Action, prefix string) []guarded.Action {
	out := make([]guarded.Action, len(actions))
	for i, a := range actions {
		out[i] = a.WithName(prefix + "." + a.Name)
	}
	return out
}

// TestGenerateSourceMatchesGenerate pins the GCL rendering against the
// program Generate builds from the same seed: the compiled source must
// have the same schema size and, state by state, the same transitions
// (action index and successor state).
func TestGenerateSourceMatchesGenerate(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		cfg := GenConfig{Vars: 1 + int(seed%4), Actions: 1 + int(seed%5), MaxWrites: 1 + int(seed%3)}
		p, err := Generate(seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		src := GenerateSource(seed, cfg, 2)
		f, err := gcl.ParseAndCompile(src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		n, _ := p.Schema().NumStates()
		if m, _ := f.Program.Schema().NumStates(); m != n {
			t.Fatalf("seed %d: %d states, want %d", seed, m, n)
		}
		for i := uint64(0); i < n; i++ {
			want := p.Successors(p.Schema().StateAt(i))
			got := f.Program.Successors(f.Program.Schema().StateAt(i))
			if len(got) != len(want) {
				t.Fatalf("seed %d state %d: %d transitions, want %d\n%s", seed, i, len(got), len(want), src)
			}
			for k := range want {
				if got[k].Action != want[k].Action || got[k].To.Index() != want[k].To.Index() {
					t.Fatalf("seed %d state %d: transition %d is %d->%d, want %d->%d\n%s", seed, i, k,
						got[k].Action, got[k].To.Index(), want[k].Action, want[k].To.Index(), src)
				}
			}
		}
	}
}
