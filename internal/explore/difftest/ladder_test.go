package difftest

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"detcorr/internal/core"
	"detcorr/internal/crosscheck"
	"detcorr/internal/explore"
	"detcorr/internal/flow"
	"detcorr/internal/gcl"
	"detcorr/internal/ladder"
	"detcorr/internal/prove"
	"detcorr/internal/spec"
	"detcorr/internal/state"
)

// ladderSources are the programs the ladder budget suite runs: generated
// programs rendered as source, the token ring at n = 3..6, and every
// example system.
func ladderSources() []struct{ name, src string } {
	var out []struct{ name, src string }
	for seed := int64(0); seed < 40; seed++ {
		cfg := crosscheck.GenConfig{Vars: 3 + int(seed%3), Actions: 2 + int(seed%3)}
		out = append(out, struct{ name, src string }{fmt.Sprintf("gen%d", seed), crosscheck.GenerateSource(seed, cfg, 2)})
	}
	for n := 3; n <= 6; n++ {
		out = append(out, struct{ name, src string }{fmt.Sprintf("ring%d", n), RingSource(n, n)})
	}
	for _, ex := range []struct{ name, src string }{
		{"ring_watched", RingWatchedSource(3, 3)},
		{"memaccess_pm", MemaccessPM},
		{"memaccess_pf", MemaccessPF},
		{"memaccess_pn", MemaccessPN},
		{"memaccess_pair", MemaccessPairSource},
		{"tmr", TMRSource},
		{"byzagree", ByzAgreeSource},
	} {
		out = append(out, ex)
	}
	return out
}

// TestLadderBudget runs every verdict question of the ladder — closure,
// convergence, detects, corrects — for every declared predicate of every
// ladder source, once on a bare compile (cache and exploration only) and
// once on a prove- and flow-certified compile. The verdicts, witnesses
// included, must be byte-identical, and every top-level ladder run on the
// certified side must charge no more accelerator work than its budget,
// Limit of the program. Across the suite every tier must decide some
// verdict, so no rung of the ladder passes vacuously.
func TestLadderBudget(t *testing.T) {
	decided := map[ladder.Tier]int{}
	defer func() {
		for _, tier := range ladder.Tiers {
			if decided[tier] == 0 {
				t.Errorf("no verdict decided by the %s tier (%v)", tier, decided)
			}
		}
	}()
	for _, tc := range ladderSources() {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := gcl.ParseAndCompile(tc.src)
			if err != nil {
				t.Fatalf("compile: %v\n%s", err, tc.src)
			}
			sub, err := gcl.ParseAndCompile(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			if err := prove.Certify(sub); err != nil {
				t.Fatal(err)
			}
			if err := flow.Certify(sub); err != nil {
				t.Fatal(err)
			}
			limit := ladder.Limit(sub.Program)
			var rep ladder.Report
			ctx := ladder.WithReport(context.Background(), &rep)
			names := make([]string, 0, len(ref.Preds))
			for name := range ref.Preds {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				rp, _ := ref.Pred(name)
				sp, _ := sub.Pred(name)
				same(t, "closed("+name+")",
					spec.CheckClosed(ref.Program, rp),
					spec.CheckClosedCtx(ctx, sub.Program, sp))
				same(t, "converges(true, "+name+")",
					spec.CheckConverges(ref.Program, state.True, rp),
					spec.CheckConvergesCtx(ctx, sub.Program, state.True, sp))
				// From true as well as from the predicate itself: the first
				// is the benchmark's question, the second hits both verdict
				// polarities on most predicates.
				for _, u := range []string{"true", name} {
					ru, su := state.True, state.True
					if u != "true" {
						ru, su = rp, sp
					}
					same(t, "detects("+name+", "+u+")",
						core.Detector{Name: "d", D: ref.Program, Z: rp, X: rp, U: ru}.Check(),
						core.Detector{Name: "d", D: sub.Program, Z: sp, X: sp, U: su}.CheckCtx(ctx))
					same(t, "corrects("+name+", "+u+")",
						core.Corrector{Name: "c", C: ref.Program, Z: rp, X: rp, U: ru}.Check(),
						core.Corrector{Name: "c", C: sub.Program, Z: sp, X: sp, U: su}.CheckCtx(ctx))
				}
			}
			if len(rep.Traces) != 6*len(names) {
				t.Fatalf("%d ladder traces, want one per verdict (%d)", len(rep.Traces), 6*len(names))
			}
			for i, tr := range rep.Traces {
				decided[tr.DecidedBy]++
				if tr.Budget != limit || tr.Spent < 0 || tr.Spent > tr.Budget {
					t.Errorf("verdict %d: charged %d of budget %d (want budget %d)", i, tr.Spent, tr.Budget, limit)
				}
			}
		})
	}
}

func same(t *testing.T, what string, refErr, subErr error) {
	t.Helper()
	if errString(refErr) != errString(subErr) {
		t.Errorf("%s: verdicts diverge\n  unaccelerated: %s\n  ladder:        %s", what, errString(refErr), errString(subErr))
	}
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestLadderRing7ProveWins pins the win the budget must keep: on the
// 823,543-state ring 7, Legit closure and the Legit detector are decided by
// the prove tier, well inside the budget, with no exploration at all.
func TestLadderRing7ProveWins(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the ring-7 state space")
	}
	f, err := gcl.ParseAndCompile(RingSource(7, 7))
	if err != nil {
		t.Fatal(err)
	}
	if err := prove.Certify(f); err != nil {
		t.Fatal(err)
	}
	legit, _ := f.Pred("Legit")
	var rep ladder.Report
	ctx := ladder.WithReport(context.Background(), &rep)
	before := explore.CacheStats()
	if err := spec.CheckClosedCtx(ctx, f.Program, legit); err != nil {
		t.Fatalf("ring-7 Legit closure: %v", err)
	}
	if err := (core.Detector{D: f.Program, Z: legit, X: legit, U: state.True}).CheckCtx(ctx); err != nil {
		t.Fatalf("ring-7 Legit detector: %v", err)
	}
	if d := explore.CacheStats().Builds - before.Builds; d != 0 {
		t.Errorf("%d graph builds, want none", d)
	}
	for i, want := range []int64{1 << 10, 1 << 22} {
		tr := rep.Traces[i]
		if tr.DecidedBy != ladder.Prove || len(tr.Declined) != 0 {
			t.Errorf("verdict %d decided by %s after %v, want the prove tier first", i, tr.DecidedBy, tr.Declined)
		}
		if tr.Spent > want {
			t.Errorf("verdict %d charged %d units, want at most %d of its %d budget", i, tr.Spent, want, tr.Budget)
		}
	}
}
