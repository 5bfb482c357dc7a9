package main

import (
	"math"
	"sort"
	"time"
)

// tailPercentile returns the highest percentile of xs that still has at
// least minBeyond samples strictly above its rank, together with its value.
// With n samples sorted ascending, the sample at index n-1-minBeyond is the
// highest one that leaves minBeyond samples beyond it; its percentile is
// reported as the share of samples at or below it. ok is false when there
// are not more than minBeyond samples, so no such percentile exists.
func tailPercentile(xs []float64, minBeyond int) (pct, value float64, ok bool) {
	n := len(xs)
	if n <= minBeyond {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	i := n - 1 - minBeyond
	return 100 * float64(i+1) / float64(n), s[i], true
}

// median returns the middle sample (the mean of the two middle samples for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// hdQuantile is the Harrell-Davis estimate of the p-quantile (0 < p < 1):
// a weighted mean of all order statistics, the i-th weighted by the
// Beta(p(n+1), (1-p)(n+1)) probability of ((i-1)/n, i/n]. On a few dozen
// samples whose values cluster with gaps between (a sweep of distinct
// requests, a session of two kinds of edits), a single order statistic
// jumps across a gap whenever noise reorders its neighbours; this
// estimate moves smoothly instead.
func hdQuantile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	a, b := p*float64(n+1), (1-p)*float64(n+1)
	var est, prev float64
	for i := 1; i <= n; i++ {
		cur := regIncBeta(float64(i)/float64(n), a, b)
		est += (cur - prev) * s[i-1]
		prev = cur
	}
	return est
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction.
func regIncBeta(x, a, b float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(x, a, b) / a
	}
	return 1 - front*betaCF(1-x, b, a)/b
}

// betaCF evaluates the continued fraction of the incomplete beta function
// by the modified Lentz method.
func betaCF(x, a, b float64) float64 {
	const tiny, eps = 1e-300, 1e-14
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= 300; m++ {
		fm := float64(m)
		for _, num := range []float64{
			fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm)),
			-(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1)),
		} {
			d = 1 + num*d
			if math.Abs(d) < tiny {
				d = tiny
			}
			c = 1 + num/c
			if math.Abs(c) < tiny {
				c = tiny
			}
			d = 1 / d
			h *= d * c
		}
		if math.Abs(d*c-1) < eps {
			break
		}
	}
	return h
}

// cappedGeomean is the geometric mean of per-request times in which every
// time above limit — and every request that never finished, passed as a
// negative time — counts as exactly limit. Times are floored at floor so a
// sub-resolution sample cannot drag the mean to zero.
func cappedGeomean(times []float64, limit, floor float64) float64 {
	if len(times) == 0 {
		return 0
	}
	var logSum float64
	for _, t := range times {
		if t < 0 || t > limit {
			t = limit
		}
		if t < floor {
			t = floor
		}
		logSum += math.Log(t)
	}
	return math.Exp(logSum / float64(len(times)))
}

// openLoopSample is one request of an open-loop schedule: when it was due,
// when the generator actually handed it to a connection, and when its
// answer arrived.
type openLoopSample struct {
	due, sent, done time.Time
}

// latency is the request's time from when it was due — not from when it
// was sent — so a stall that delays later sends is charged to every
// request it delayed.
func (s openLoopSample) latency() time.Duration { return s.done.Sub(s.due) }

// lag is how late the generator itself ran for this request.
func (s openLoopSample) lag() time.Duration {
	if d := s.sent.Sub(s.due); d > 0 {
		return d
	}
	return 0
}

// lateGrowth is how much later the last quarter of a segment's requests
// finished than its first quarter, each relative to its due time, by the
// quarters' median lateness (so one stall does not read as a backlog). A
// server that keeps up shows flat lateness however high it is; one past
// saturation shows lateness growing with the request index.
func lateGrowth(samples []openLoopSample) time.Duration {
	n := len(samples)
	if n < 8 {
		return 0
	}
	q := n / 4
	late := func(part []openLoopSample) float64 {
		xs := make([]float64, len(part))
		for i, s := range part {
			xs[i] = float64(s.latency())
		}
		return median(xs)
	}
	return time.Duration(late(samples[n-q:]) - late(samples[:q]))
}

// windowedStat splits a segment, in due order, into k equal windows,
// applies stat to each window's latencies (ms) and returns the median: a
// stall inside one window moves that window's value only. With windows of
// at least 1000 requests, a window's p99 keeps ten samples beyond it.
func windowedStat(samples []openLoopSample, k int, stat func([]float64) float64) float64 {
	k = max(k, 1)
	w := len(samples) / k
	if w == 0 {
		return 0
	}
	vals := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		lat := make([]float64, w)
		for j, s := range samples[i*w : (i+1)*w] {
			lat[j] = ms(s.latency())
		}
		vals = append(vals, stat(lat))
	}
	return median(vals)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
