package main

import (
	"math"
	"sort"
	"time"
)

// minTail is the number of samples a reported percentile must have
// beyond it.
const minTail = 10

// tailLadder lists the tail percentiles the benchmark may report, lowest
// first.
var tailLadder = []float64{90, 99, 99.9}

// tailPercentile returns the highest percentile of tailLadder that n
// samples support with at least minTail samples beyond it, and false when
// n is too small for any.
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailLadder {
		if beyond(n, p) >= minTail {
			best, ok = p, true
		}
	}
	return best, ok
}

// beyond counts the samples strictly above the nearest-rank p-th
// percentile of n samples.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// rank is the 1-based nearest-rank position of the p-th percentile. The
// epsilon keeps a decimal p such as 99.9 from rounding one rank up.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of xs (which it
// sorts in place); NaN when xs is empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), sorting xs in place; NaN when empty.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// request is one Router.Submit call as the load generator saw it.
type request struct {
	// origin is when the request's latency starts: its due time in an
	// open loop, its send time in a closed loop.
	origin time.Time
	sent   time.Time
	done   time.Time
	rows   int
	// err is a routing error, a shed, or a reply outside the plaintext
	// tolerance; a failed request misses every latency percentile.
	err error
}

// latencyMS is the request's latency, +Inf when it failed.
func (q request) latencyMS() float64 {
	if q.err != nil {
		return math.Inf(1)
	}
	return ms(q.done.Sub(q.origin))
}

// lagMS is how late the generator sent the request after its due time.
func (q request) lagMS() float64 { return ms(q.sent.Sub(q.origin)) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencySummary is the end-to-end latency picture of a set of requests.
type latencySummary struct {
	n, failed int
	p50, p90  float64
	// tailP and tail are the highest percentile the sample count
	// supports (tailPercentile) and its value.
	tailP, tail float64
	tailOK      bool
}

// summarize computes latency percentiles over reqs, counting each failed
// request as an infinite latency.
func summarize(reqs []request) latencySummary {
	s := latencySummary{n: len(reqs)}
	lat := make([]float64, len(reqs))
	for i, q := range reqs {
		lat[i] = q.latencyMS()
		if q.err != nil {
			s.failed++
		}
	}
	s.p50 = percentile(lat, 50)
	s.p90 = percentile(lat, 90)
	if s.tailP, s.tailOK = tailPercentile(len(lat)); s.tailOK {
		s.tail = percentile(lat, s.tailP)
	}
	return s
}

// genLagP99 is the 99th-percentile generator lag of reqs, in ms.
func genLagP99(reqs []request) float64 {
	lag := make([]float64, len(reqs))
	for i, q := range reqs {
		lag[i] = q.lagMS()
	}
	return percentile(lag, 99)
}
