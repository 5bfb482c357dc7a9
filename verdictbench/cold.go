package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"detcorr/internal/explore"
	"detcorr/internal/gcl"
)

// coldLimit is the per-verdict limit of cold-verdict. No decided request's
// seed time lies within 2x below it (the slowest, watched-6 detects, took
// 4.9 s), and the requests it cuts took 14 s (ring-7 convergence) to more
// than ten minutes (ring-6 corrects through the prover). README.md lists
// the seed times.
const coldLimit = 10 * time.Second

// coldSetupReps is how many child start-ups set-up time is the median of.
const coldSetupReps = 15

// probeIDBase offsets the probe child's span IDs past the replay child's
// when their spans are merged into one request.
const probeIDBase = 1 << 20

// childProbe runs in the child: the bare exploration probe on an
// uncertified compile, recorded as probe spans.
func childProbe(task childTask) childResult {
	rec := newRecorder()
	rec.setRequest(task.Name)
	var res childResult
	f, err := gcl.ParseAndCompile(task.Req.Program)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	newReplayer(context.Background(), rec).bareProbe(f, task.Req)
	res.Spans = rec.snapshot()
	return res
}

// runCold is the one-shot verdict path, closed loop with one client: each
// request is source text -> serve.LoadSource -> serve.Eval in its own child
// process, killed at coldLimit. Sweeps repeat while --seconds remain; a
// run makes at least one complete sweep.
func runCold(cfg config, truth map[string]truthEntry) (*result, error) {
	if cfg.trace {
		return traceCold(cfg, truth)
	}
	var e endToEnd
	for i := 0; i < coldSetupReps; i++ {
		run, err := runChild(childTask{Mode: "ping", Name: "ping"}, coldLimit)
		if err != nil || run.res == nil {
			return nil, fmt.Errorf("set-up child: %v", err)
		}
		e.setup = append(e.setup, run.wall.Seconds())
	}
	items := coldOrder(cfg.seed)
	var t tally
	var times []float64
	var maxRSS int64
	start := time.Now()
	sweeps := 0
	for sweeps == 0 || time.Since(start) < cfg.seconds {
		for _, it := range items {
			run, err := runChild(childTask{Mode: "eval", Name: it.Name, Req: it.Req}, coldLimit)
			if err != nil {
				t.errored(it.Name, err.Error())
				continue
			}
			maxRSS = max(maxRSS, run.maxRSSK)
			switch {
			case run.killed:
				t.undecidedAt(it.Name)
				times = append(times, ms(coldLimit))
			case run.res.Err != "":
				t.errored(it.Name, run.res.Err)
			default:
				t.judge(truth, it.Name, run.res.Verdict)
				times = append(times, run.res.LoadMS+run.res.EvalMS)
			}
		}
		sweeps++
	}
	wall := time.Since(start)
	t.report()
	limitMS := ms(coldLimit)
	e.answered = t.answeredShare()
	e.peakRSSMB = float64(maxRSS) / 1024
	e.p50 = hdQuantile(times, 0.5)
	pct, tail := tailOf(times)
	e.tail = tail
	e.geomean = cappedGeomean(times, limitMS, 0.001)
	e.throughputRPS = float64(t.attempted) / wall.Seconds()
	fmt.Printf("cold-verdict: %d sweeps of %d requests, sweep_s %.3f, verdict_geomean_ms %.3f, failed_share %.4f, tail is p%.1f\n",
		sweeps, len(items), wall.Seconds()/float64(sweeps), e.geomean, 1-e.answered, pct)
	return &result{Correct: !t.wrongOrError(), Attempted: t.attempted, Failed: t.failed, Metrics: e.metrics()}, nil
}

// traceCold is the traced run of cold-verdict: each request runs twice,
// each time in a fresh child — once untraced through serve.Eval (its own
// time, the baseline of the tracing overhead), once as the traced replay.
// The two children run side by side, each on one CPU (GOMAXPROCS=1), so
// the traced run takes one sweep's time rather than two; its times are
// therefore not the untraced run's, but eval and replay are timed alike.
func traceCold(cfg config, truth map[string]truthEntry) (*result, error) {
	items := coldOrder(cfg.seed)
	var t tally
	var all []span
	var evalSum, replaySum float64
	var hits, misses int64
	agg := newLayerAgg()
	for _, it := range items {
		var ev, rp childRun
		var evErr, rpErr error
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			ev, evErr = runChild(childTask{Mode: "eval", Name: it.Name, Req: it.Req}, coldLimit, "GOMAXPROCS=1")
		}()
		go func() {
			defer wg.Done()
			// The replay child stops itself at the limit; the parent's kill
			// is only a backstop for a child that cannot.
			rp, rpErr = runChild(childTask{Mode: "replay", Name: it.Name, Req: it.Req, LimitMS: ms(coldLimit)}, 3*coldLimit, "GOMAXPROCS=1")
		}()
		wg.Wait()
		if evErr != nil {
			t.errored(it.Name, evErr.Error())
			continue
		}
		evalMS := ms(coldLimit)
		if !ev.killed && ev.res.Err == "" {
			evalMS = ev.res.LoadMS + ev.res.EvalMS
		}
		if rpErr != nil || rp.res == nil {
			msg := "replay child killed"
			if rpErr != nil {
				msg = rpErr.Error()
			}
			t.errored(it.Name, msg)
			continue
		}
		// The bare exploration, timed in a third process of its own, so
		// neither the replay nor the untraced verdict runs on a heap it
		// has grown.
		if pr, err := runChild(childTask{Mode: "probe", Name: it.Name, Req: it.Req}, coldLimit, "GOMAXPROCS=1"); err == nil && pr.res != nil {
			for _, sp := range pr.res.Spans {
				sp.ID += probeIDBase
				rp.res.Spans = append(rp.res.Spans, sp)
			}
		}
		res := rp.res
		switch {
		case res.Cut:
			t.undecidedAt(it.Name)
		case res.Err != "":
			t.errored(it.Name, res.Err)
		default:
			t.judge(truth, it.Name, res.Verdict)
		}
		evalSum += evalMS
		replaySum += res.ReplayMS
		hits += res.CacheHits
		misses += res.CacheMiss
		all = append(all, res.Spans...)
		tier, bare := tierAndBare(res.Spans)
		fmt.Printf("request %-36s eval_ms %10.3f replay_ms %10.3f tier_ms %10.3f bare_ms %9.3f tier_over_build %9.3f cut %v\n",
			it.Name, evalMS, res.ReplayMS, tier, bare, ratio(tier, bare), res.Cut)
	}
	t.report()
	agg.add(all)
	m := agg.metrics()
	m["explore.cache_hit_ratio"] = metric{ratio(float64(hits), float64(hits+misses)), "ratio"}
	m["trace.replay_ms"] = metric{replaySum, "ms"}
	m["trace.eval_ms"] = metric{evalSum, "ms"}
	m["trace.overhead_ms"] = metric{replaySum - evalSum, "ms"}
	m["trace.overhead_share"] = metric{ratio(replaySum-evalSum, evalSum), "ratio"}
	m["serve.eval_ms"] = metric{evalSum, "ms"}
	fillMissing(m)
	if err := writeSpans(cfg, all); err != nil {
		return nil, err
	}
	return &result{Correct: !t.wrongOrError(), Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// childReplay runs in the child: the traced replay under the limit. When
// the limit strikes, a watchdog writes the spans recorded so far and ends
// the process.
func childReplay(task childTask) childResult {
	rec := newRecorder()
	r := newReplayer(context.Background(), rec)
	rec.setRequest(task.Name)
	var res childResult
	before := explore.CacheStats()
	var mu sync.Mutex
	finished := false
	limit := time.Duration(task.LimitMS * float64(time.Millisecond))
	replayStart := time.Now()
	watchdog := time.AfterFunc(limit, func() {
		mu.Lock()
		defer mu.Unlock()
		if finished {
			return
		}
		finished = true
		cut := res
		cut.Cut = true
		cut.Spans = rec.snapshot()
		cut.ReplayMS = ms(time.Since(replayStart))
		_ = encodeResult(cut)
		os.Exit(0)
	})
	rec.enter("request")
	f, err := r.load(task.Req.Program)
	var verdict string
	if err == nil {
		verdict, err = r.check(f, task.Req)
	}
	rec.exit(nil)
	// If the watchdog already fired it holds mu until the process exits.
	mu.Lock()
	finished = true
	watchdog.Stop()
	mu.Unlock()
	res.ReplayMS = ms(time.Since(replayStart))
	res.Verdict = verdict
	if err != nil {
		res.Err = err.Error()
	}
	after := explore.CacheStats()
	res.CacheHits, res.CacheMiss = after.Hits-before.Hits, after.Misses-before.Misses
	res.Spans = rec.snapshot()
	return res
}
