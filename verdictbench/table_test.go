package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestTruthCoversEveryRequest: every request any workload can send, for
// any seed, has a frozen verdict.
func TestTruthCoversEveryRequest(t *testing.T) {
	truth, err := loadTruth()
	if err != nil {
		t.Fatal(err)
	}
	items, err := allTruthItems()
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if _, ok := truth[it.Name]; !ok {
			t.Errorf("no ground truth for %s", it.Name)
		}
	}
	for _, seed := range []int64{1, 2, 3} {
		for _, st := range sessionSteps(seed) {
			if _, err := st.doc.source(st.to); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestBenchmarkFileMatchesMetrics: BENCHMARK.json names exactly the
// metrics the runs print.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, file map[string]string, printed map[string]metric) {
		t.Helper()
		var names []string
		for n := range printed {
			names = append(names, n)
		}
		sort.Strings(names)
		if len(file) != len(printed) {
			t.Errorf("%s: BENCHMARK.json lists %d, the runs print %d: %v", what, len(file), len(printed), names)
		}
		for n, m := range printed {
			if file[n] != m.Unit {
				t.Errorf("%s: %s printed with unit %q, BENCHMARK.json says %q", what, n, m.Unit, file[n])
			}
		}
	}
	e2e := map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	same("end_to_end", e2e, endToEnd{}.metrics())
	layers := map[string]string{}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	printed := map[string]metric{}
	fillMissing(printed)
	same("per_layer", layers, printed)
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	if got := strings.Join(wl, ","); got != "cold-verdict,edit-session" {
		t.Errorf("workloads = %s", got)
	}
}
