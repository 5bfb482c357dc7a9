package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// perLayer lists every per-layer metric a traced run reports, with its
// unit. A workload that does not exercise a layer reports 0 for it.
// Times are self times summed over the traced run; README.md says which
// end-to-end metric each one should move, on which workload.
var perLayer = []struct{ name, unit string }{
	{"gcl.parse_ms", "ms"},
	{"lint.analyze_ms", "ms"},
	{"gcl.compile_ms", "ms"},
	{"prove.certify_ms", "ms"},
	{"prove.attempt_ms", "ms"},
	{"prove.attempts", "count"},
	{"prove.decided_ratio", "ratio"},
	{"prove.attempt_over_build", "ratio"},
	{"flow.certify_ms", "ms"},
	{"flow.slice_ms", "ms"},
	{"flow.slice_attempts", "count"},
	{"flow.cone_ratio", "ratio"},
	{"flow.slice_over_build", "ratio"},
	{"flow.plan_ms", "ms"},
	{"explore.build_ms", "ms"},
	{"explore.builds", "count"},
	{"explore.states", "count"},
	{"explore.edges", "count"},
	{"explore.states_per_s", "1/s"},
	{"explore.scan_ms", "ms"},
	{"explore.repair_ms", "ms"},
	{"explore.repair_rebuilds", "count"},
	{"explore.reach_ms", "ms"},
	{"explore.scc_ms", "ms"},
	{"explore.faircycle_ms", "ms"},
	{"explore.eventually_ms", "ms"},
	{"explore.setof_ms", "ms"},
	{"explore.cache_hit_ratio", "ratio"},
	{"core.goodregion_ms", "ms"},
	{"core.conditions_ms", "ms"},
	{"spec.closed_on_ms", "ms"},
	{"serve.eval_ms", "ms"},
	{"serve.http_overhead_ms", "ms"},
	{"serve.verdict_cache_hit_ratio", "ratio"},
	{"serve.evals_per_request", "ratio"},
	{"serve.refused", "count"},
	{"serve.registry_compiles", "count"},
	{"serve.revise_ms", "ms"},
	{"serve.preserved_share", "ratio"},
	{"serve.preservable_ms", "ms"},
	{"trace.replay_ms", "ms"},
	{"trace.uncovered_ms", "ms"},
	{"trace.eval_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"trace.overhead_share", "ratio"},
}

// spanSelf is each span's self time as a metric, by span name.
var spanSelf = map[string]string{
	"gcl.parse":          "gcl.parse_ms",
	"lint.analyze":       "lint.analyze_ms",
	"gcl.compile":        "gcl.compile_ms",
	"prove.certify":      "prove.certify_ms",
	"prove.attempt":      "prove.attempt_ms",
	"flow.certify":       "flow.certify_ms",
	"flow.slice":         "flow.slice_ms",
	"flow.plan":          "flow.plan_ms",
	"explore.build":      "explore.build_ms",
	"explore.scan":       "explore.scan_ms",
	"explore.repair":     "explore.repair_ms",
	"explore.reach":      "explore.reach_ms",
	"explore.faircycle":  "explore.faircycle_ms",
	"explore.eventually": "explore.eventually_ms",
	"explore.setof":      "explore.setof_ms",
	"core.goodregion":    "core.goodregion_ms",
	"core.conditions":    "core.conditions_ms",
	"spec.closed_on":     "spec.closed_on_ms",
	"serve.preservable":  "serve.preservable_ms",
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerAgg turns spans into per-layer metrics.
type layerAgg struct {
	m map[string]float64
	// builds: states and seconds of the non-cached, non-probe builds.
	states, edges, buildSec float64
	attempts, decided       float64
	cones                   []float64
	// Tier time and bare-exploration time over requests that had both.
	proveTier, proveBare, sliceTier, sliceBare float64
}

func newLayerAgg() *layerAgg { return &layerAgg{m: map[string]float64{}} }

// add folds in spans; IDs are unique within a request (Req).
func (a *layerAgg) add(spans []span) {
	byReq := map[string][]span{}
	var order []string
	for _, s := range spans {
		if _, ok := byReq[s.Req]; !ok {
			order = append(order, s.Req)
		}
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	for _, req := range order {
		a.addRequest(byReq[req])
	}
}

func (a *layerAgg) addRequest(spans []span) {
	self := selfTimes(spans)
	for _, s := range spans {
		d := ms(self[s.ID])
		if s.Probe {
			if s.Name == "explore.scc" {
				a.m["explore.scc_ms"] += d
			}
			continue
		}
		if name, ok := spanSelf[s.Name]; ok {
			a.m[name] += d
		}
		if s.Parent == 0 && s.Name == "request" {
			a.m["trace.uncovered_ms"] += d
		}
		switch s.Name {
		case "prove.attempt":
			if v, ok := s.Attrs["decided"]; ok {
				a.attempts++
				a.decided += v
			}
		case "flow.slice":
			if s.Attrs["sliced"] == 1 {
				a.m["flow.slice_attempts"]++
			}
			if c, ok := s.Attrs["cone"]; ok {
				a.cones = append(a.cones, c)
			}
		case "explore.build":
			if st, ok := s.Attrs["states"]; ok {
				a.m["explore.builds"]++
				a.states += st
				a.edges += s.Attrs["edges"]
				a.buildSec += s.dur().Seconds()
			}
		}
	}
	proveT, sliceT, bare := tierTimes(spans)
	if bare > 0 {
		if proveT > 0 {
			a.proveTier += proveT
			a.proveBare += bare
		}
		if sliceT > 0 {
			a.sliceTier += sliceT
			a.sliceBare += bare
		}
	}
}

func (a *layerAgg) metrics() map[string]metric {
	out := map[string]metric{}
	for k, v := range a.m {
		out[k] = metric{v, unitOf(k)}
	}
	out["prove.attempts"] = metric{a.attempts, "count"}
	out["prove.decided_ratio"] = metric{ratio(a.decided, a.attempts), "ratio"}
	out["prove.attempt_over_build"] = metric{ratio(a.proveTier, a.proveBare), "ratio"}
	out["flow.slice_over_build"] = metric{ratio(a.sliceTier, a.sliceBare), "ratio"}
	var cs float64
	for _, c := range a.cones {
		cs += c
	}
	out["flow.cone_ratio"] = metric{ratio(cs, float64(len(a.cones))), "ratio"}
	out["explore.states"] = metric{a.states, "count"}
	out["explore.edges"] = metric{a.edges, "count"}
	out["explore.states_per_s"] = metric{ratio(a.states, a.buildSec), "1/s"}
	return out
}

func unitOf(name string) string {
	for _, p := range perLayer {
		if p.name == name {
			return p.unit
		}
	}
	return ""
}

// fillMissing gives every per-layer metric a value: 0 where the workload
// does not exercise the layer.
func fillMissing(m map[string]metric) {
	for _, p := range perLayer {
		if _, ok := m[p.name]; !ok {
			m[p.name] = metric{0, p.unit}
		}
	}
}

// tierTimes splits one request's replay into the time its tiers spent —
// the prover attempts and the slicer attempts, each counted once at its
// outermost span — and the bare exploration the probe measured.
func tierTimes(spans []span) (proveT, sliceT, bare float64) {
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	insideTier := func(s span) bool {
		for p := s.Parent; p != 0; p = byID[p].Parent {
			if n := byID[p].Name; n == "prove.attempt" || n == "flow.slice" {
				return true
			}
		}
		return false
	}
	for _, s := range spans {
		switch {
		case s.Probe && s.Parent == 0:
			bare += ms(s.dur())
		case s.Probe:
		case s.Name == "prove.attempt" && !insideTier(s):
			proveT += ms(s.dur())
		case s.Name == "flow.slice" && !insideTier(s):
			sliceT += ms(s.dur())
		}
	}
	return proveT, sliceT, bare
}

// tierAndBare is one request's total tier time and its bare exploration.
func tierAndBare(spans []span) (tier, bare float64) {
	p, s, b := tierTimes(spans)
	return p + s, b
}

// writeSpans writes the run's spans, kept in memory until now, under the
// build directory of the checkout.
func writeSpans(cfg config, spans []span) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(spans), path)
	return nil
}

// since is a small helper for millisecond timings.
func since(t time.Time) float64 { return ms(time.Since(t)) }
