package main

import (
	"bufio"
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"detcorr/internal/explore"
	"detcorr/internal/serve"
	"detcorr/internal/serve/api"
)

// served-mix drives an in-process serve.Server over loopback, open loop:
// requests are due on a fixed schedule whatever the server does, and each
// is timed from when it was due. The generator is one process with
// servedConns connections (the machine's CPU count).
const (
	servedConns     = 2
	servedRefRate   = 2000.0 // req/s: the reference rate, well below saturation
	servedLatLimit  = 25.0   // ms: the p99 limit served_max_rps must keep
	servedZipfS     = 1.05   // Zipf exponent over the pool's ranks
	servedWarmReqs  = 4000   // closed-loop warm-up before any segment is timed
	servedSetupReps = 5
	servedRetries   = 3
	servedTrial     = 1000 * time.Millisecond // one trial of the rate search
	servedWindows   = 4                       // p99 windows per trial
	servedLadder    = 1.25                    // rate step between trials
	servedMaxTrials = 16
	servedRetrials  = 2 // a rung fails only if it fails this many retrials too
	// servedBacklogSlack (ms) is how much the lateness of a segment's last
	// quarter may exceed its first quarter's before the backlog counts as
	// growing.
	servedBacklogSlack = servedLatLimit / 4
	registryCap        = 64 // serve's default MaxPrograms
)

// servedHarness is one server under load and its client side.
type servedHarness struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan struct{}
}

func startServed() (*servedHarness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &servedHarness{srv: serve.NewServer(serve.Config{}), url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	h.hs = &http.Server{Handler: h.srv}
	go func() {
		defer close(h.done)
		_ = h.hs.Serve(ln)
	}()
	h.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     servedConns,
		MaxIdleConnsPerHost: servedConns,
	}}
	return h, nil
}

// stop drains the server and waits for its serving goroutine to end.
func (h *servedHarness) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = h.srv.Shutdown(ctx)
	_ = h.hs.Shutdown(ctx)
	<-h.done
	h.client.CloseIdleConnections()
}

// ask posts one verdict request, retrying a refusal (429) as the protocol
// asks. It returns the verdict and the X-DC-Cache header.
func (h *servedHarness) ask(req api.Request) (verdict, cache string, err error) {
	var body bytes.Buffer
	if err := api.Encode(&body, req); err != nil {
		return "", "", err
	}
	for attempt := 0; ; attempt++ {
		resp, err := h.client.Post(h.url+"/v1/verdict", "application/json", bytes.NewReader(body.Bytes()))
		if err != nil {
			return "", "", err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return "", "", err
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < servedRetries {
			time.Sleep(time.Millisecond << attempt)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			return "", "", fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
		}
		var r api.Response
		if err := json.Unmarshal(b, &r); err != nil {
			return "", "", err
		}
		return r.Verdict, resp.Header.Get("X-DC-Cache"), nil
	}
}

// scrape reads the /metrics counters the benchmark uses.
func (h *servedHarness) scrape() (map[string]float64, error) {
	resp, err := h.client.Get(h.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// zipfStream draws pool indices from a seeded Zipf over the pool's ranks.
type zipfStream struct{ z *rand.Zipf }

func newZipfStream(seed int64, n int) *zipfStream {
	r := rand.New(rand.NewSource(seed))
	return &zipfStream{rand.NewZipf(r, servedZipfS, 1, uint64(n-1))}
}

func (z *zipfStream) next() int { return int(z.z.Uint64()) }

// servedSample is one timed request of a segment.
type servedSample struct {
	openLoopSample
	idx   int
	cache string
	err   error
	vrd   string
}

// segment offers rate req/s for d, open loop, and returns every request
// in due order. The dispatcher hands a request to the connections when it
// is due; a request waits for a free connection as it would for a busy
// server, and that wait counts in its latency.
func (h *servedHarness) segment(pool []item, z *zipfStream, rate float64, d time.Duration) []servedSample {
	n := int(rate * d.Seconds())
	samples := make([]servedSample, n)
	for i := range samples {
		samples[i].idx = z.next()
	}
	queue := make(chan int, n) // sized to the number of sends: never blocks
	var wg sync.WaitGroup
	for c := 0; c < servedConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				s := &samples[i]
				s.vrd, s.cache, s.err = h.ask(pool[s.idx].Req)
				s.done = time.Now()
			}
		}()
	}
	// The dispatcher sleeps with nanosleep on a thread of its own: the
	// runtime timer behind time.Sleep overshoots a sub-millisecond wait by
	// about 0.6 ms here, which would put the generator's lateness, not the
	// server's, in every latency.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now()
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; i < n; {
		now := time.Now()
		for i < n {
			due := start.Add(time.Duration(i) * interval)
			if due.After(now) {
				break
			}
			samples[i].due = due
			samples[i].sent = now
			queue <- i
			i++
		}
		if i < n {
			if wait := time.Until(start.Add(time.Duration(i) * interval)); wait > 0 {
				ts := syscall.NsecToTimespec(int64(wait))
				_ = syscall.Nanosleep(&ts, nil) // an early wake-up just loops
			}
		}
	}
	close(queue)
	wg.Wait()
	return samples
}

// judgeSamples checks every answer and returns the latencies in ms.
func judgeSamples(t *tally, truth map[string]truthEntry, pool []item, samples []servedSample) []float64 {
	lat := make([]float64, 0, len(samples))
	for _, s := range samples {
		name := pool[s.idx].Name
		if s.err != nil {
			t.errored(name, s.err.Error())
			continue
		}
		t.judge(truth, name, s.vrd)
		lat = append(lat, ms(s.latency()))
	}
	return lat
}

// stress scores a segment against the served_max_rps criterion: the
// larger of its windowed p99 over the latency limit and its backlog
// growth over the slack. A segment meets the criterion when its stress is
// at most 1; an error is infinite stress.
func stress(samples []servedSample) float64 {
	base := make([]openLoopSample, len(samples))
	for i, s := range samples {
		if s.err != nil {
			return math.Inf(1)
		}
		base[i] = s.openLoopSample
	}
	p99 := windowedStat(base, servedWindows, func(lat []float64) float64 { return percentile(lat, 99) })
	return max(p99/servedLatLimit, ms(lateGrowth(base))/servedBacklogSlack)
}

// maxRate is served_max_rps: the highest offered rate whose stress stays
// at most 1. Trials climb a geometric ladder from the reference rate until
// a rung exceeds the criterion on every retrial too (a passing stall does
// not end the climb); the rate where stress crosses 1 is then
// interpolated on a log-log scale between the last rung that met the
// criterion and the one that did not.
func (h *servedHarness) maxRate(t *tally, truth map[string]truthEntry, pool []item, z *zipfStream, refStress float64) (float64, int) {
	prevRate, prevStress := servedRefRate, refStress
	trials := 0
	for rate := 2 * servedRefRate; trials < servedMaxTrials; rate *= servedLadder {
		seg := h.segment(pool, z, rate, servedTrial)
		judgeSamples(t, truth, pool, seg)
		trials++
		st := stress(seg)
		for retry := 0; st > 1 && retry < servedRetrials; retry++ {
			again := h.segment(pool, z, rate, servedTrial)
			judgeSamples(t, truth, pool, again)
			trials++
			st = min(st, stress(again))
		}
		if st <= 1 {
			prevRate, prevStress = rate, st
			continue
		}
		if math.IsInf(st, 1) || prevStress <= 0 {
			return prevRate, trials
		}
		frac := -math.Log(prevStress) / (math.Log(st) - math.Log(prevStress))
		return prevRate * math.Pow(rate/prevRate, frac), trials
	}
	return prevRate, trials
}

// serveCounters fills the per-layer metrics scraped from /metrics before
// and after a stretch of traffic.
func serveCounters(m map[string]metric, before, after map[string]float64) {
	d := func(k string) float64 { return after[k] - before[k] }
	hits := d(`dcserved_verdicts_total{cache="hit"}`)
	misses := d(`dcserved_verdicts_total{cache="miss"}`)
	joins := d(`dcserved_verdicts_total{cache="join"}`)
	m["serve.verdict_cache_hit_ratio"] = metric{ratio(hits, hits+misses+joins), "ratio"}
	m["serve.evals_per_request"] = metric{ratio(d("dcserved_eval_seconds_count"), hits+misses+joins), "ratio"}
	m["serve.refused"] = metric{d(`dcserved_requests_total{code="429"}`), "count"}
	m["serve.eval_ms"] = metric{1000 * d("dcserved_eval_seconds_sum"), "ms"}
}

// httpOverhead is the median HTTP round trip of a cached request minus the
// median in-process serve.Eval of the same request on a warm graph, over
// items (each asked once first, so the HTTP side is a verdict-cache hit).
func (h *servedHarness) httpOverhead(items []item) (float64, error) {
	var httpMS, evalMS []float64
	for _, it := range items {
		if _, _, err := h.ask(it.Req); err != nil {
			return 0, err
		}
		f, err := serve.LoadSource(it.Req.Program)
		if err != nil {
			return 0, err
		}
		if _, err := serve.Eval(context.Background(), f, it.Req); err != nil {
			return 0, err
		}
		for k := 0; k < 20; k++ {
			s := time.Now()
			if _, _, err := h.ask(it.Req); err != nil {
				return 0, err
			}
			httpMS = append(httpMS, since(s))
			s = time.Now()
			if _, err := serve.Eval(context.Background(), f, it.Req); err != nil {
				return 0, err
			}
			evalMS = append(evalMS, since(s))
		}
	}
	return median(httpMS) - median(evalMS), nil
}

// setUpServed starts a server and warms it with the corpus head, several
// times over; the last server is kept. Set-up time is their median.
func setUpServed(pool []item) (*servedHarness, []float64, error) {
	var times []float64
	var h *servedHarness
	for i := 0; i < servedSetupReps; i++ {
		if h != nil {
			h.stop()
			explore.ResetCache()
		}
		start := time.Now()
		var err error
		if h, err = startServed(); err != nil {
			return nil, nil, err
		}
		for _, it := range pool[:13] {
			if _, _, err := h.ask(it.Req); err != nil {
				h.stop()
				return nil, nil, fmt.Errorf("warm %s: %w", it.Name, err)
			}
		}
		times = append(times, time.Since(start).Seconds())
	}
	return h, times, nil
}

// warm runs the closed-loop warm-up: the first servedWarmReqs draws of the
// seeded stream, so timed segments start from a filled cache.
func (h *servedHarness) warm(pool []item, z *zipfStream) error {
	for i := 0; i < servedWarmReqs; i++ {
		it := pool[z.next()]
		if _, _, err := h.ask(it.Req); err != nil {
			return fmt.Errorf("warm-up %s: %w", it.Name, err)
		}
	}
	return nil
}

// runServed: set-up, warm-up, then (untraced) the reference segment and the
// search for the highest rate that meets the latency limit. The time
// after the reference segment goes to the search.
func runServed(cfg config, truth map[string]truthEntry) (*result, error) {
	pool := servedPool()
	h, setup, err := setUpServed(pool)
	if err != nil {
		return nil, err
	}
	defer h.stop()
	z := newZipfStream(cfg.seed, len(pool))
	if err := h.warm(pool, z); err != nil {
		return nil, err
	}
	refDur := cfg.seconds / 2
	if cfg.trace {
		return traceServed(cfg, truth, h, pool, z, refDur)
	}
	var t tally
	ref := h.segment(pool, z, servedRefRate, refDur)
	lat := judgeSamples(&t, truth, pool, ref)
	// Read after a fixed amount of work, so the search below (whose length
	// depends on where the server saturates) does not move it.
	rss := vmHWM()
	maxRPS, trials := h.maxRate(&t, truth, pool, z, stress(ref))
	t.report()
	// The reference segment's statistics are medians over its windows of
	// 1000 requests (half a second each), so a stall of the machine that
	// spans a window or two moves none of them.
	windows := int(servedRefRate*refDur.Seconds()) / 1000
	base := make([]openLoopSample, len(ref))
	for i, s := range ref {
		base[i] = s.openLoopSample
	}
	e := endToEnd{
		setup:     setup,
		answered:  t.answeredShare(),
		peakRSSMB: rss,
		p50:       windowedStat(base, windows, func(lat []float64) float64 { return median(lat) }),
		tail:      windowedStat(base, windows, func(lat []float64) float64 { return percentile(lat, 99) }),
		geomean: windowedStat(base, windows, func(lat []float64) float64 {
			return cappedGeomean(lat, math.Inf(1), 0.001)
		}),
		throughputRPS: maxRPS,
	}
	fmt.Printf("served-mix: reference %.0f req/s for %s: served_p50_ms %.3f served_p99_ms %.3f (%d samples); served_max_rps %.1f after %d trials\n",
		servedRefRate, refDur, e.p50, e.tail, len(lat), e.throughputRPS, trials)
	return &result{Correct: !t.wrongOrError(), Attempted: t.attempted, Failed: t.failed, Metrics: e.metrics()}, nil
}

// traceServed is the traced run: the reference segment again, between two
// /metrics scrapes, then an HTTP-versus-in-process probe and a traced
// replay of the requests that missed the caches.
func traceServed(cfg config, truth map[string]truthEntry, h *servedHarness, pool []item, z *zipfStream, refDur time.Duration) (*result, error) {
	var t tally
	before, err := h.scrape()
	if err != nil {
		return nil, err
	}
	cs0 := explore.CacheStats()
	ref := h.segment(pool, z, servedRefRate, refDur)
	judgeSamples(&t, truth, pool, ref)
	cs1 := explore.CacheStats()
	after, err := h.scrape()
	if err != nil {
		return nil, err
	}
	m := map[string]metric{}
	serveCounters(m, before, after)
	m["explore.cache_hit_ratio"] = metric{ratio(float64(cs1.Hits-cs0.Hits), float64(cs1.Hits-cs0.Hits+cs1.Misses-cs0.Misses)), "ratio"}

	// Registry compiles: /metrics exports no compile counter, so they are
	// counted from the responses: a miss loads its source through the
	// registry, which compiles it unless it is among the registryCap most
	// recently loaded sources.
	lru := list.New()
	where := map[string]*list.Element{}
	compiles := 0
	var lags []float64
	missed := map[int]bool{}
	var missOrder []int
	for _, s := range ref {
		lags = append(lags, ms(s.lag()))
		if s.cache != "miss" {
			continue
		}
		if !missed[s.idx] {
			missed[s.idx] = true
			missOrder = append(missOrder, s.idx)
		}
		src := pool[s.idx].Req.Program
		if el, ok := where[src]; ok {
			lru.MoveToFront(el)
			continue
		}
		compiles++
		where[src] = lru.PushFront(src)
		if lru.Len() > registryCap {
			delete(where, lru.Remove(lru.Back()).(string))
		}
	}
	m["serve.registry_compiles"] = metric{float64(compiles), "count"}

	overhead, err := h.httpOverhead(pool[:13])
	if err != nil {
		return nil, err
	}
	m["serve.http_overhead_ms"] = metric{overhead, "ms"}

	// The traced replay of the missed requests, each from a fresh compile,
	// beside serve.LoadSource + serve.Eval of the same request untraced.
	// The two alternate which goes first, so neither is always the one
	// that runs on a heap the other has grown.
	rec := newRecorder()
	rp := newReplayer(context.Background(), rec)
	var replaySum, evalSum float64
	for i, idx := range missOrder {
		it := pool[idx]
		untraced := func() error {
			s := time.Now()
			f, err := serve.LoadSource(it.Req.Program)
			if err == nil {
				_, err = serve.Eval(context.Background(), f, it.Req)
			}
			evalSum += since(s)
			return err
		}
		traced := func() {
			rec.setRequest(it.Name)
			s := time.Now()
			rec.enter("request")
			rf, err := rp.load(it.Req.Program)
			var v string
			if err == nil {
				v, err = rp.check(rf, it.Req)
			}
			rec.exit(nil)
			replaySum += since(s)
			if err != nil {
				t.errored(it.Name, err.Error())
				return
			}
			t.judge(truth, it.Name, v)
		}
		if i%2 == 1 {
			traced()
		}
		if err := untraced(); err != nil {
			return nil, fmt.Errorf("%s: %w", it.Name, err)
		}
		if i%2 == 0 {
			traced()
		}
	}
	spans := rec.snapshot()
	agg := newLayerAgg()
	agg.add(spans)
	for k, v := range agg.metrics() {
		if _, set := m[k]; !set {
			m[k] = v
		}
	}
	m["trace.replay_ms"] = metric{replaySum, "ms"}
	m["trace.eval_ms"] = metric{evalSum, "ms"}
	m["trace.overhead_ms"] = metric{replaySum - evalSum, "ms"}
	m["trace.overhead_share"] = metric{ratio(replaySum-evalSum, evalSum), "ratio"}
	fillMissing(m)
	t.report()
	fmt.Printf("served-mix traced: %d requests, %d distinct misses replayed, %d registry compiles, generator lag p99 %.3f ms\n",
		len(ref), len(missOrder), compiles, percentile(lags, 99))
	if err := writeSpans(cfg, spans); err != nil {
		return nil, err
	}
	return &result{Correct: !t.wrongOrError(), Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}
