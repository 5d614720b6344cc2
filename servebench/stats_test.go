package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{99, 0, false},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, got) < minTail {
			t.Errorf("n=%d: p%g has only %d samples beyond it", c.n, got, beyond(c.n, got))
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := percentile(xs, 90); got != 90 {
		t.Fatalf("p90 of 1..100 = %g, want 90 (10 samples beyond)", got)
	}
	if got := percentile(xs, 50); got != 50 {
		t.Fatalf("p50 of 1..100 = %g, want 50", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median = %g, want 2.5", got)
	}
}

func TestFailedRequestsCountAndMissPercentiles(t *testing.T) {
	t0 := time.Unix(0, 0)
	var reqs []request
	for i := 0; i < 100; i++ {
		q := request{origin: t0, sent: t0, done: t0.Add(10 * time.Millisecond), rows: 1}
		if i < 11 {
			q.err = errors.New("shed")
		}
		reqs = append(reqs, q)
	}
	s := summarize(reqs)
	if s.failed != 11 || s.n != 100 {
		t.Fatalf("summarize counted %d failed of %d, want 11 of 100", s.failed, s.n)
	}
	if !math.IsInf(s.p90, 1) || s.p50 != 10 {
		t.Fatalf("p50 %g p90 %g: 11%% failures must push p90 to a miss and leave p50 at 10 ms", s.p50, s.p90)
	}
	e := endToEnd([]*cycleResult{{reqs: reqs, images: 89, wall: time.Second, capImages: 1}})
	if got := e.metrics["ok_frac"].Value; math.Abs(got-0.89) > 1e-12 {
		t.Fatalf("ok_frac = %g, want 0.89", got)
	}
	if got := e.metrics["request_p90_ms"].Value; got != missMS {
		t.Fatalf("request_p90_ms = %g, want the miss value %g", got, missMS)
	}
}

func TestQueueWaitsFollowFlushOrder(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	reqs := []request{{origin: at(0), rows: 1}, {origin: at(5), rows: 1}, {origin: at(6), rows: 1}}
	flushes := []flushStart{{at: at(1), rows: 1}, {at: at(20), rows: 2}}
	got := queueWaits(reqs, flushes)
	want := []float64{1, 15, 14}
	if len(got) != len(want) {
		t.Fatalf("queueWaits = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("queueWaits = %v, want %v", got, want)
		}
	}
}
