package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"regexp"

	"detcorr/internal/fault"
	"detcorr/internal/flow"
	"detcorr/internal/gcl"
	"detcorr/internal/serve"
	"detcorr/internal/serve/api"
	"detcorr/internal/serve/corpus"
	"detcorr/internal/spec"
)

// truthEntry is the expected verdict of one request and where it comes
// from:
//   - "paper": the source paper states it (Dijkstra's K >= n ring
//     stabilizes; pf is fail-safe, pn nonmasking, pm masking);
//   - "corpus": corpus.Items, the serve package's ground truth;
//   - "prover-test": the prover/graph agreement tests in
//     internal/explore/difftest;
//   - "graph": computed once by the plain from-scratch graph path (slicing
//     off, no prover certification) and frozen;
//   - "prover+graph": a prove request's verdict as the prover gives it,
//     frozen only after the plain graph path agreed with it.
type truthEntry struct {
	Verdict string `json:"verdict"`
	Source  string `json:"source"`
}

//go:embed truth.json
var truthJSON []byte

func loadTruth() (map[string]truthEntry, error) {
	var t map[string]truthEntry
	if err := json.Unmarshal(truthJSON, &t); err != nil {
		return nil, fmt.Errorf("truth.json: %w", err)
	}
	return t, nil
}

// allTruthItems lists every request any workload can send, for any seed.
func allTruthItems() ([]item, error) {
	items := append(coldItems(), servedPool()...)
	ring6, watched6, companion := sessionDocs()
	for _, d := range []document{ring6, watched6, companion} {
		for mask := 0; mask < 1<<len(d.toggles); mask++ {
			src, err := d.source(mask)
			if err != nil {
				return nil, err
			}
			items = append(items, editRound(d, mask, src)...)
		}
	}
	return items, nil
}

var (
	paperRing = regexp.MustCompile(`^(ring\d|watched\d)(@00)?/(closure|convergence|corrects|corrects-nonmasking)$`)
	paperMem  = map[string]bool{
		"memaccess_pf/detects-failsafe":    true,
		"memaccess_pn/corrects-nonmasking": true,
		"memaccess_pm/detects-masking":     true,
	}
	proverTests = map[string]string{
		"ring4/prove-closure":    api.VerdictProved,
		"tmr/prove-span":         api.VerdictProved,
		"tmr/closure-S":          api.VerdictHolds,
		"tmr/closure-T":          api.VerdictHolds,
		"byzagree/prove-closure": api.VerdictProved,
		"byzagree/closure":       api.VerdictHolds,
		"byzagree/corrects":      api.VerdictHolds,
	}
)

// freezeTruth computes the table and writes it to stdout. Every verdict is
// computed by the plain graph path; claims from the paper, the corpus and
// the prover tests must agree with it or the freeze fails.
func freezeTruth() error {
	flow.SetEnabled(false)
	items, err := allTruthItems()
	if err != nil {
		return err
	}
	corpusTruth := map[string]string{}
	for _, it := range corpus.Items() {
		corpusTruth["corpus/"+it.Name] = it.Verdict
	}
	table := map[string]truthEntry{}
	for _, it := range items {
		if _, dup := table[it.Name]; dup {
			continue
		}
		got, err := plainVerdict(it.Req)
		if err != nil {
			return fmt.Errorf("%s: %w", it.Name, err)
		}
		e := truthEntry{Verdict: got, Source: "graph"}
		if it.Req.Check == api.CheckProve {
			e.Source = "prover+graph"
		}
		claim, source := "", ""
		switch {
		case corpusTruth[it.Name] != "":
			claim, source = corpusTruth[it.Name], "corpus"
		case proverTests[it.Name] != "":
			claim, source = proverTests[it.Name], "prover-test"
		case paperRing.MatchString(it.Name) || paperMem[it.Name]:
			claim, source = api.VerdictHolds, "paper"
		}
		if source != "" {
			if claim != got {
				return fmt.Errorf("%s: %s says %s, the graph path says %s", it.Name, source, claim, got)
			}
			e.Source = source
		}
		table[it.Name] = e
		fmt.Fprintf(os.Stderr, "%-45s %-14s %s\n", it.Name, e.Verdict, e.Source)
	}
	out, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", out)
	return err
}

// plainVerdict decides a request on the plain path: the source compiled
// without prover certification or slicing, so every check builds or scans
// from scratch. A prove request keeps the prover's verdict, but only after
// the graph agrees: proved must mean the property holds on the graph, and
// disproved that it fails.
func plainVerdict(req api.Request) (string, error) {
	f, err := gcl.ParseAndCompile(req.Program)
	if err != nil {
		return "", err
	}
	ctx := context.Background()
	resp, err := serve.Eval(ctx, f, req)
	if err != nil {
		return "", err
	}
	if req.Check != api.CheckProve {
		return resp.Verdict, nil
	}
	var graphErr error
	switch {
	case req.Span != "" && req.Span != "auto":
		composed, _, err := fault.Compose(f.Program, f.Faults)
		if err != nil {
			return "", err
		}
		p, ok := f.Pred(req.Span)
		if !ok {
			return "", fmt.Errorf("no predicate %s", req.Span)
		}
		graphErr = spec.CheckClosed(composed, p)
	case req.Invariant != "":
		r, err := serve.Eval(ctx, f, api.Request{Program: req.Program, Check: api.CheckClosure, Invariant: req.Invariant})
		if err != nil {
			return "", err
		}
		if r.Verdict != api.VerdictHolds {
			graphErr = fmt.Errorf("%s", r.Detail)
		}
	case req.Goal != "":
		r, err := serve.Eval(ctx, f, api.Request{Program: req.Program, Check: api.CheckConvergence, Invariant: "true", Goal: req.Goal})
		if err != nil {
			return "", err
		}
		if r.Verdict != api.VerdictHolds {
			graphErr = fmt.Errorf("%s", r.Detail)
		}
	}
	switch {
	case resp.Verdict == api.VerdictProved && graphErr != nil:
		return "", fmt.Errorf("prover proved it but the graph path fails: %v", graphErr)
	case resp.Verdict == api.VerdictDisproved && graphErr == nil:
		return "", fmt.Errorf("prover disproved it but the graph path holds")
	}
	return resp.Verdict, nil
}
