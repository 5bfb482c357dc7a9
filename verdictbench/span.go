package main

import (
	"sort"
	"sync"
	"time"
)

// span is one call into a layer, recorded by the benchmark around its own
// calls into the program's public functions. Spans of one request share
// Req; Parent is the enclosing span's ID (0 for a request's root).
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Req    string             `json:"req"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
	// Open marks a span the per-verdict limit cut short: End is the
	// moment the limit struck, not the call's return.
	Open bool `json:"open,omitempty"`
	// Probe marks work the pipeline itself does not do, run only to give
	// a ratio its denominator (the bare exploration a tier exists to
	// avoid). Probes are left out of the replay sum.
	Probe bool `json:"probe,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory; nothing is written until the run ends.
// The replay is single-threaded, so an open-span stack gives each new span
// its parent. The mutex lets a watchdog snapshot the spans while the
// replay is still running.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	req   string
	spans []span
	stack []int // indices into spans of the open spans, innermost last
	probe int   // >0 while inside a probe
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// setRequest names the request that subsequent spans belong to.
func (r *recorder) setRequest(id string) {
	r.mu.Lock()
	r.req = id
	r.mu.Unlock()
}

// enter opens a span under the innermost open one.
func (r *recorder) enter(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := 0
	if n := len(r.stack); n > 0 {
		parent = r.spans[r.stack[n-1]].ID
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Req: r.req, Name: name,
		Start: r.now(), Probe: r.probe > 0,
	})
	r.stack = append(r.stack, len(r.spans)-1)
}

// exit closes the innermost open span, attaching attrs (may be nil).
func (r *recorder) exit(attrs map[string]float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	r.spans[i].End = r.now()
	r.spans[i].Attrs = attrs
}

// do wraps fn in a span.
func (r *recorder) do(name string, fn func()) {
	r.enter(name)
	fn()
	r.exit(nil)
}

// probing runs fn with every span it opens marked as a probe.
func (r *recorder) probing(fn func()) {
	r.mu.Lock()
	r.probe++
	r.mu.Unlock()
	fn()
	r.mu.Lock()
	r.probe--
	r.mu.Unlock()
}

// snapshot returns a copy of the spans; spans still open are closed at the
// current instant and marked Open.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]span(nil), r.spans...)
	now := r.now()
	for _, i := range r.stack {
		out[i].End = now
		out[i].Open = true
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children. Children are clipped to the
// parent's interval and overlapping children are merged, so a self time
// is never negative however the children were scheduled.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	started := false
	for _, v := range ivs {
		switch {
		case !started:
			curA, curB, started = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if started {
		total += curB - curA
	}
	return time.Duration(total)
}
