package explore

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"detcorr/internal/guarded"
	"detcorr/internal/state"
)

// The graph cache is the process-wide memo behind Shared: checkers that need
// the transition graph of (program, init, fairness, bound) get the one
// already built instead of re-exploring the state space. Identity follows
// the same discipline as the verdict ladder's accelerators — a program is its
// *guarded.Program pointer — combined with the init predicate's name (see
// memoizablePredName for the naming contract), the fairness mask, and the
// MaxStates bound. The bound belongs in the key: an unbounded graph must not
// answer a bounded request that is required to fail with ErrStateBound, and
// vice versa. Parallelism stays out of the key because graphs are canonical —
// byte-identical at any worker count.

type cacheKey struct {
	prog *guarded.Program
	init string
	fair string // "" when nil or all-true; else one '0'/'1' per action
	max  int
}

type cacheEntry struct {
	key   cacheKey
	ready chan struct{} // closed when g/err are set
	g     *Graph
	err   error
	elem  *list.Element // non-nil while resident in the LRU
}

type graphCache struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
	lru     *list.List // of *cacheEntry; front = most recently used
	states  int        // total NumNodes across resident graphs
	budget  int
}

// defaultCacheBudget bounds the cache by total state count across resident
// graphs (~4.2M states; the Ring7 graph alone is 823543). Eviction is LRU.
const defaultCacheBudget = 4 << 20

var cache = &graphCache{
	entries: map[cacheKey]*cacheEntry{},
	lru:     list.New(),
	budget:  defaultCacheBudget,
}

// Cache counters. builds counts every Build call in the process (cached or
// not); the others account for Shared/Peek traffic.
var (
	buildCount    atomic.Int64
	cacheHits     atomic.Int64
	cacheMisses   atomic.Int64
	cacheBypasses atomic.Int64
	cacheEvicts   atomic.Int64
)

// Stats is a snapshot of the graph cache counters.
type Stats struct {
	Builds    int64 // explore.Build calls (every engine invocation)
	Hits      int64 // Shared/Peek requests served from the cache
	Misses    int64 // Shared requests that had to build
	Bypasses  int64 // Shared requests with unmemoizable keys (direct Build)
	Evictions int64 // graphs evicted by the size budget
	Resident  int   // graphs currently cached
	States    int   // total states across cached graphs
}

// CacheStats returns a snapshot of the cache counters.
func CacheStats() Stats {
	cache.mu.Lock()
	resident, states := cache.lru.Len(), cache.states
	cache.mu.Unlock()
	return Stats{
		Builds:    buildCount.Load(),
		Hits:      cacheHits.Load(),
		Misses:    cacheMisses.Load(),
		Bypasses:  cacheBypasses.Load(),
		Evictions: cacheEvicts.Load(),
		Resident:  resident,
		States:    states,
	}
}

// ResetCache empties the graph cache and zeroes the counters. Tests and
// benchmarks use it to measure from a clean slate. In-flight builds complete
// normally but are not retained.
func ResetCache() {
	cache.mu.Lock()
	for k, e := range cache.entries {
		if e.elem != nil {
			delete(cache.entries, k)
		}
	}
	cache.lru.Init()
	cache.states = 0
	cache.mu.Unlock()
	buildCount.Store(0)
	cacheHits.Store(0)
	cacheMisses.Store(0)
	cacheBypasses.Store(0)
	cacheEvicts.Store(0)
}

// SetCacheBudget sets the cache's size budget in total states and returns
// the previous value, evicting immediately if the new budget is smaller.
// Values below 1 disable caching of new graphs (everything evicts).
func SetCacheBudget(states int) int {
	cache.mu.Lock()
	prev := cache.budget
	cache.budget = states
	cache.evictLocked(nil)
	cache.mu.Unlock()
	return prev
}

// fairKeyOf normalizes a fairness mask: nil and all-true are the same
// semantics, so both map to "".
func fairKeyOf(fair []bool) string {
	allFair := true
	for _, f := range fair {
		if !f {
			allFair = false
			break
		}
	}
	if fair == nil || allFair {
		return ""
	}
	b := make([]byte, len(fair))
	for i, f := range fair {
		if f {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

// sharedKeyOf derives the cache key for a request, reporting false when the
// request cannot be keyed (the init predicate has no memoizable name).
//
//dc:cachekey builder
func sharedKeyOf(p *guarded.Program, init state.Predicate, opts Options) (cacheKey, bool) {
	name := init.String()
	if !memoizablePredName(name) {
		return cacheKey{}, false
	}
	return cacheKey{prog: p, init: name, fair: fairKeyOf(opts.Fair), max: opts.MaxStates}, true
}

// Shared returns the transition graph for (p, init, opts), building it at
// most once per process per key and serving every later identical request
// from the cache. Requests whose init predicate cannot serve as a key (see
// memoizablePredName) bypass the cache and build directly. Concurrent
// requests for the same key are coalesced: one goroutine builds, the rest
// wait. A failed build is never cached — the error is returned to every
// coalesced waiter and the next request retries.
//
// The returned graph is shared: callers must not mutate it (they never
// could — the Graph API is read-only — but sets returned by SetOf, Reach,
// etc. remain private per call).
func Shared(p *guarded.Program, init state.Predicate, opts Options) (*Graph, error) {
	return SharedCtx(context.Background(), p, init, opts)
}

// SharedCtx is Shared under a context. Cancellation aborts the caller's own
// build (a cancelled build is never cached) and stops a coalesced wait, so
// an abandoned request releases its CPU instead of exploring to completion.
// The singleflight survives cancellation of individual requesters: when the
// goroutine that was building aborts, waiters whose contexts are still live
// retry — the next round elects a new builder rather than propagating the
// stranger's cancellation.
func SharedCtx(ctx context.Context, p *guarded.Program, init state.Predicate, opts Options) (*Graph, error) {
	key, ok := sharedKeyOf(p, init, opts)
	if !ok {
		cacheBypasses.Add(1)
		return BuildCtx(ctx, p, init, opts)
	}
	for {
		cache.mu.Lock()
		if e, found := cache.entries[key]; found {
			if e.elem != nil { // resident: done and successful
				cache.lru.MoveToFront(e.elem)
				cache.mu.Unlock()
				cacheHits.Add(1)
				return e.g, nil
			}
			cache.mu.Unlock()
			select { // in flight: wait for the builder
			case <-e.ready:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if e.err != nil {
				if isCancellation(e.err) {
					// The builder's requester walked away; our request is
					// still live, so contend for the next flight.
					if err := ctx.Err(); err != nil {
						return nil, err
					}
					continue
				}
				return nil, e.err
			}
			cacheHits.Add(1)
			return e.g, nil
		}
		e := &cacheEntry{key: key, ready: make(chan struct{})}
		cache.entries[key] = e
		cache.mu.Unlock()
		cacheMisses.Add(1)

		g, err := BuildCtx(ctx, p, init, opts)
		cache.mu.Lock()
		if err != nil {
			// Never poison the cache: drop the entry so the next request
			// retries. Cancelled builds take this path too — an aborted
			// exploration is partial and must never serve later requests.
			delete(cache.entries, key)
		} else {
			e.g = g
			if g.NumNodes() <= cache.budget {
				e.elem = cache.lru.PushFront(e)
				cache.states += g.NumNodes()
				cache.evictLocked(e)
			} else {
				// Oversized graphs are returned but not retained.
				delete(cache.entries, key)
			}
		}
		cache.mu.Unlock()
		e.err = err
		close(e.ready)
		return g, err
	}
}

// isCancellation reports whether err stems from a context ending, directly
// or wrapped.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// ResidentOf returns the total resident states across cached graphs built
// from p, without touching the LRU or the hit counters. It is the quota
// accounting hook for services that bill cache residency to tenants (see
// internal/serve): charge what the tenant's programs actually hold.
func ResidentOf(p *guarded.Program) int {
	cache.mu.Lock()
	defer cache.mu.Unlock()
	total := 0
	for key, e := range cache.entries {
		if key.prog == p && e.elem != nil {
			total += e.g.NumNodes()
		}
	}
	return total
}

// EvictProgram drops every resident graph built from p and returns the
// number of states freed. In-flight builds are unaffected (they complete
// and cache normally); later requests for the evicted keys rebuild. This is
// the quota enforcement hook: a tenant over its residency budget gives back
// its least-recently-used program's graphs wholesale.
func EvictProgram(p *guarded.Program) int {
	cache.mu.Lock()
	defer cache.mu.Unlock()
	freed := 0
	for key, e := range cache.entries {
		if key.prog == p && e.elem != nil {
			cache.lru.Remove(e.elem)
			e.elem = nil
			freed += e.g.NumNodes()
			cache.states -= e.g.NumNodes()
			delete(cache.entries, key)
			cacheEvicts.Add(1)
		}
	}
	return freed
}

// Peek returns the cached graph for (p, init, opts) without building or
// waiting: in-flight and absent entries both report false.
func Peek(p *guarded.Program, init state.Predicate, opts Options) (*Graph, bool) {
	key, ok := sharedKeyOf(p, init, opts)
	if !ok {
		return nil, false
	}
	cache.mu.Lock()
	defer cache.mu.Unlock()
	if e, found := cache.entries[key]; found && e.elem != nil {
		cache.lru.MoveToFront(e.elem)
		cacheHits.Add(1)
		return e.g, true
	}
	return nil, false
}

// evictLocked drops least-recently-used graphs until the budget holds,
// never evicting keep (the entry just inserted). Callers hold cache.mu.
func (c *graphCache) evictLocked(keep *cacheEntry) {
	for c.states > c.budget {
		back := c.lru.Back()
		if back == nil {
			return
		}
		victim := back.Value.(*cacheEntry)
		if victim == keep {
			if back.Prev() == nil {
				return
			}
			back = back.Prev()
			victim = back.Value.(*cacheEntry)
		}
		c.lru.Remove(back)
		victim.elem = nil
		c.states -= victim.g.NumNodes()
		delete(c.entries, victim.key)
		cacheEvicts.Add(1)
	}
}

// The kernel memo shares compiled transition kernels across Build and Scan
// calls for the same program. Kernels are immutable and concurrency-safe
// (all mutable state lives in per-caller Scratches), so one per program
// suffices for the whole process.
var (
	kernelMu   sync.Mutex
	kernels    = map[*guarded.Program]*guarded.Kernel{}
	kernelSize = 0
)

// kernelMemoCap bounds the kernel memo. Kernels are small, but programs can
// be created in unbounded numbers (property tests, synthesis); on overflow
// the memo is dropped wholesale rather than tracked with an LRU.
const kernelMemoCap = 256

func sharedKernel(p *guarded.Program) *guarded.Kernel {
	kernelMu.Lock()
	k, ok := kernels[p]
	if !ok {
		if kernelSize >= kernelMemoCap {
			kernels = map[*guarded.Program]*guarded.Kernel{}
			kernelSize = 0
		}
		k = guarded.Compile(p)
		kernels[p] = k
		kernelSize++
	}
	kernelMu.Unlock()
	return k
}
