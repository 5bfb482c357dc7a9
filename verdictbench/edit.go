package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"detcorr/internal/explore"
	"detcorr/internal/flow"
	"detcorr/internal/gcl"
	"detcorr/internal/serve"
	"detcorr/internal/serve/api"
	"detcorr/internal/state"
)

// edit-session is the dctl watch / POST /v1/revise path, closed loop with
// one client against an in-process server. A session warms the base
// revisions once, then walks every revision of ring 6 and of watched
// ring 6 in a seeded order (sessionSteps): POST /v1/revise, then the
// fixed round of verdicts on the new revision, plus the ring-5
// companion's round. A step is timed from the revise POST to the last
// answer of its round. Sessions repeat, each on a fresh server, while
// --seconds remain; a run makes at least editMinSessions.
const (
	editSetupReps   = 3
	editMinSessions = 3
)

// editState is one session's view of its documents: each one's current
// toggle mask.
type editState struct {
	h    *servedHarness
	mask map[string]int
}

func (h *servedHarness) revise(oldSrc, newSrc string) (*serve.ReviseReport, error) {
	var body bytes.Buffer
	if err := api.Encode(&body, api.ReviseRequest{Old: oldSrc, New: newSrc}); err != nil {
		return nil, err
	}
	resp, err := h.client.Post(h.url+"/v1/revise", "application/json", &body)
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("revise: status %d: %s", resp.StatusCode, b)
	}
	var rep serve.ReviseReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// askRound asks a round's requests in order and judges each answer.
func (h *servedHarness) askRound(t *tally, truth map[string]truthEntry, items []item) {
	for _, it := range items {
		v, _, err := h.ask(it.Req)
		if err != nil {
			t.errored(it.Name, err.Error())
			continue
		}
		t.judge(truth, it.Name, v)
	}
}

func docRound(d document, mask int) []item {
	src, err := d.source(mask)
	if err != nil {
		// The toggles are fixed anchors in generated sources; a miss is a
		// bug in the benchmark, not an input.
		panic(err)
	}
	return editRound(d, mask, src)
}

// startSession starts a fresh server on cold caches and warms the three
// base revisions.
func startSession(t *tally, truth map[string]truthEntry) (*editState, error) {
	explore.ResetCache()
	h, err := startServed()
	if err != nil {
		return nil, err
	}
	ring6, watched6, companion := sessionDocs()
	for _, d := range []document{ring6, watched6, companion} {
		h.askRound(t, truth, docRound(d, 0))
	}
	return &editState{h: h, mask: map[string]int{"ring6": 0, "watched6": 0, "ring5": 0}}, nil
}

// stepStats are the revise-path numbers of one step.
type stepStats struct {
	reviseMS           float64
	preserved, audited int
	rebuilt            int
	latencyMS          float64
}

// step applies one edit and asks its round.
func (s *editState) step(t *tally, truth map[string]truthEntry, st editStep) (stepStats, error) {
	_, _, companion := sessionDocs()
	var ss stepStats
	start := time.Now()
	revise := func(d document, from, to int) error {
		oldSrc, err := d.source(from)
		if err != nil {
			return err
		}
		newSrc, err := d.source(to)
		if err != nil {
			return err
		}
		t0 := time.Now()
		rep, err := s.h.revise(oldSrc, newSrc)
		if err != nil {
			return err
		}
		ss.reviseMS += since(t0)
		ss.preserved += rep.VerdictsPreserved
		ss.audited += rep.VerdictsPreserved + rep.VerdictsInvalidated
		ss.rebuilt += rep.GraphsRebuilt
		s.mask[d.name] = to
		return nil
	}
	if err := revise(st.doc, st.from, st.to); err != nil {
		return ss, err
	}
	if st.companion {
		if err := revise(companion, st.from, st.to); err != nil {
			return ss, err
		}
	}
	s.h.askRound(t, truth, docRound(st.doc, st.to))
	s.h.askRound(t, truth, docRound(companion, s.mask["ring5"]))
	ss.latencyMS = since(start)
	return ss, nil
}

func runEdit(cfg config, truth map[string]truthEntry) (*result, error) {
	var setup []float64
	for i := 0; i < editSetupReps; i++ {
		var warm tally
		start := time.Now()
		s, err := startSession(&warm, truth)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
		s.h.stop()
		if warm.wrongOrError() {
			warm.report()
			return nil, fmt.Errorf("set-up verdicts disagree with the ground truth")
		}
	}
	if cfg.trace {
		return traceEdit(cfg, truth)
	}
	var t tally
	var lat []float64
	var stepsWall time.Duration
	sessions := 0
	started := time.Now()
	for sessions < editMinSessions || time.Since(started) < cfg.seconds {
		s, err := startSession(&t, truth)
		if err != nil {
			return nil, err
		}
		begin := time.Now()
		for _, st := range sessionSteps(cfg.seed + int64(sessions)) {
			ss, err := s.step(&t, truth, st)
			if err != nil {
				s.h.stop()
				return nil, err
			}
			lat = append(lat, ss.latencyMS)
		}
		stepsWall += time.Since(begin)
		s.h.stop()
		sessions++
	}
	t.report()
	pct, tail := tailOf(lat)
	e := endToEnd{
		setup:         setup,
		answered:      t.answeredShare(),
		peakRSSMB:     vmHWM(),
		p50:           hdQuantile(lat, 0.5),
		tail:          tail,
		geomean:       cappedGeomean(lat, math.Inf(1), 0.001),
		throughputRPS: float64(len(lat)) / stepsWall.Seconds(),
	}
	fmt.Printf("edit-session: %d sessions, %d steps: edit_p50_ms %.3f edit_tail_ms %.3f (p%.1f)\n",
		sessions, len(lat), e.p50, tail, pct)
	return &result{Correct: !t.wrongOrError(), Attempted: t.attempted, Failed: t.failed, Metrics: e.metrics()}, nil
}

// traceEdit runs one session untraced over HTTP (the revise-path numbers,
// the /metrics counters, the HTTP overhead probe and the untraced session
// time), then replays the same session in
// process with spans: each revision loaded stage by stage, the revision
// plan (flow.PlanRepair and flow.AffectedBy), the graph migration
// (explore.MigrateProgram), the keyed verdict preservation
// (serve.Preservable) and the round's checks.
func traceEdit(cfg config, truth map[string]truthEntry) (*result, error) {
	var t tally
	m := map[string]metric{}
	s, err := startSession(&t, truth)
	if err != nil {
		return nil, err
	}
	before, err := s.h.scrape()
	if err != nil {
		s.h.stop()
		return nil, err
	}
	var reviseMS float64
	var preserved, audited, rebuilt int
	steps := sessionSteps(cfg.seed)
	begin := time.Now()
	for _, st := range steps {
		ss, err := s.step(&t, truth, st)
		if err != nil {
			s.h.stop()
			return nil, err
		}
		reviseMS += ss.reviseMS
		preserved += ss.preserved
		audited += ss.audited
		rebuilt += ss.rebuilt
	}
	untraced := since(begin)
	after, err := s.h.scrape()
	if err != nil {
		s.h.stop()
		return nil, err
	}
	overhead, err := s.h.httpOverhead(corpusItems())
	s.h.stop()
	if err != nil {
		return nil, err
	}
	serveCounters(m, before, after)
	m["serve.http_overhead_ms"] = metric{overhead, "ms"}
	m["serve.revise_ms"] = metric{reviseMS, "ms"}
	m["serve.preserved_share"] = metric{ratio(float64(preserved), float64(audited)), "ratio"}
	// Every revision the session sends is a new source, and a session sends
	// fewer sources (40) than the registry holds (64), so each is compiled
	// exactly once.
	m["serve.registry_compiles"] = metric{float64(sessionSources()), "count"}

	explore.ResetCache()
	rec := newRecorder()
	rp := newReplayer(context.Background(), rec)
	cs0 := explore.CacheStats()
	traced, err := replaySession(&t, truth, rec, rp, steps)
	if err != nil {
		return nil, err
	}
	cs1 := explore.CacheStats()
	hits, misses := float64(cs1.Hits-cs0.Hits), float64(cs1.Misses-cs0.Misses)
	m["explore.cache_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	spans := rec.snapshot()
	agg := newLayerAgg()
	agg.add(spans)
	for k, v := range agg.metrics() {
		if _, set := m[k]; !set {
			m[k] = v
		}
	}
	var repairRebuilds float64
	for _, sp := range spans {
		repairRebuilds += sp.Attrs["dropped"]
	}
	m["explore.repair_rebuilds"] = metric{repairRebuilds, "count"}
	m["trace.replay_ms"] = metric{traced, "ms"}
	m["trace.eval_ms"] = metric{untraced, "ms"}
	m["trace.overhead_ms"] = metric{traced - untraced, "ms"}
	m["trace.overhead_share"] = metric{ratio(traced-untraced, untraced), "ratio"}
	fillMissing(m)
	t.report()
	fmt.Printf("edit-session traced: %d steps, untraced session %.1f ms, traced replay %.1f ms, graphs rebuilt over HTTP %d\n",
		len(steps), untraced, traced, rebuilt)
	if err := writeSpans(cfg, spans); err != nil {
		return nil, err
	}
	return &result{Correct: !t.wrongOrError(), Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// sessionSources counts the distinct sources one session sends.
func sessionSources() int {
	seen := map[string]bool{}
	ring6, watched6, companion := sessionDocs()
	for _, d := range []document{ring6, watched6, companion} {
		for _, mask := range d.walk {
			src, err := d.source(mask)
			if err == nil {
				seen[src] = true
			}
		}
	}
	return len(seen)
}

// replayDoc is one document's state in the in-process replay: its loaded
// revision and the verdicts the server would hold for it.
type replayDoc struct {
	doc      document
	mask     int
	f        *gcl.File
	verdicts map[string]string // item name suffix (check) -> verdict
}

// replaySession replays the warm-up and every step of a session with
// spans and returns the replay's wall time in ms (warm-up excluded).
func replaySession(t *tally, truth map[string]truthEntry, rec *recorder, rp *replayer, steps []editStep) (float64, error) {
	ring6, watched6, companion := sessionDocs()
	docs := map[string]*replayDoc{}
	round := func(d *replayDoc) {
		for _, it := range docRound(d.doc, d.mask) {
			check := it.Name[len(fmt.Sprintf("%s@%02d/", d.doc.name, d.mask)):]
			v, ok := d.verdicts[check]
			if !ok {
				var err error
				v, err = rp.check(d.f, it.Req)
				if err != nil {
					t.errored(it.Name, err.Error())
					continue
				}
				d.verdicts[check] = v
			}
			t.judge(truth, it.Name, v)
		}
	}
	for _, d := range []document{ring6, watched6, companion} {
		rec.setRequest("warm/" + d.name)
		src, err := d.source(0)
		if err != nil {
			return 0, err
		}
		rec.enter("request")
		f, err := rp.load(src)
		if err == nil {
			docs[d.name] = &replayDoc{doc: d, f: f, verdicts: map[string]string{}}
			round(docs[d.name])
		}
		rec.exit(nil)
		if err != nil {
			return 0, err
		}
	}
	advance := func(d *replayDoc, to int) error {
		src, err := d.doc.source(to)
		if err != nil {
			return err
		}
		nf, err := rp.load(src)
		if err != nil {
			return err
		}
		old := d.f
		var plan *flow.Plan
		var im *flow.Impact
		rec.do("flow.plan", func() {
			plan = flow.PlanRepair(old.AST, nf.AST)
			im = flow.AffectedBy(old.AST, nf.AST)
		})
		resolve := func(initName string) (state.Predicate, bool) {
			if initName == state.True.String() {
				return state.True, true
			}
			if plan.SamePreds[initName] {
				if p, ok := old.Pred(initName); ok {
					return p, true
				}
			}
			return state.Predicate{}, false
		}
		rec.enter("explore.repair")
		ms := explore.MigrateProgram(old.Program, nf.Program, plan.Graph, resolve)
		rec.exit(map[string]float64{"rebound": float64(ms.Rebound), "repaired": float64(ms.Repaired), "dropped": float64(ms.Dropped)})
		kept := map[string]string{}
		rec.do("serve.preservable", func() {
			for _, it := range docRound(d.doc, d.mask) {
				check := it.Name[len(fmt.Sprintf("%s@%02d/", d.doc.name, d.mask)):]
				v, ok := d.verdicts[check]
				if !ok {
					continue
				}
				req := it.Req
				req.Program = old.Src
				if serve.Preservable(req, &api.Response{Check: req.Check, Verdict: v}, plan, im, nf) {
					kept[check] = v
				}
			}
		})
		d.f, d.mask, d.verdicts = nf, to, kept
		return nil
	}
	begin := time.Now()
	for i, st := range steps {
		rec.setRequest(fmt.Sprintf("step%02d", i))
		rec.enter("request")
		err := advance(docs[st.doc.name], st.to)
		if err == nil && st.companion {
			err = advance(docs["ring5"], st.to)
		}
		if err != nil {
			rec.exit(nil)
			return 0, err
		}
		round(docs[st.doc.name])
		round(docs["ring5"])
		rec.exit(nil)
	}
	return since(begin), nil
}
