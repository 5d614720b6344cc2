package main

import (
	"reflect"
	"testing"
	"time"

	"pasnet/internal/tensor"
)

// fakePrepared serves one reference row of logits.
func fakePrepared() *prepared {
	return &prepared{refs: [][]float64{{1, 2, 3, 4}}}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	p := fakePrepared()
	pl := plan{
		rows: [][]int{{0}, {0}, {0}, {0}},
		due:  []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond},
	}
	inputs := make([]*tensor.Tensor, len(pl.rows))
	const stall = 60 * time.Millisecond
	calls := 0
	// The first enqueue stalls the generator past the next two due times,
	// as a full dispatch queue would.
	submit := func(*tensor.Tensor) func() ([]float64, error) {
		calls++
		if calls == 1 {
			time.Sleep(stall)
		}
		return func() ([]float64, error) { return []float64{1, 2, 3, 4}, nil }
	}
	start := time.Now()
	reqs := openLoop(submit, p, pl, inputs, start)
	if len(reqs) != 3 {
		t.Fatalf("got %d requests, want 3", len(reqs))
	}
	for i, q := range reqs {
		if q.err != nil {
			t.Fatalf("request %d failed: %v", i, q.err)
		}
		if !q.origin.Equal(start.Add(pl.due[i])) {
			t.Fatalf("request %d origin is not its due time", i)
		}
	}
	// The stalled generator sent request 1 about 50 ms late and request 2
	// about 40 ms late; both latencies include that wait.
	for i, minLag := range []time.Duration{0, 45 * time.Millisecond, 35 * time.Millisecond} {
		lag := reqs[i].sent.Sub(reqs[i].origin)
		if lag < minLag {
			t.Fatalf("request %d lag %v, want at least %v", i, lag, minLag)
		}
		if reqs[i].latencyMS() < ms(lag) {
			t.Fatalf("request %d latency %.1f ms does not include its %v lag", i, reqs[i].latencyMS(), lag)
		}
	}
	if got := genLagP99(reqs); got < 45 {
		t.Fatalf("generator lag p99 = %.1f ms, want at least 45", got)
	}
}

func TestWrongReplyFailsTheRequest(t *testing.T) {
	p := fakePrepared()
	pl := plan{rows: [][]int{{0}, {0}, {0}}}
	inputs := make([]*tensor.Tensor, len(pl.rows))
	replies := [][]float64{{1, 2, 3, 4.04}, {1, 2, 3, 4.06}}
	i := 0
	submit := func(*tensor.Tensor) func() ([]float64, error) {
		r := replies[i]
		i++
		return func() ([]float64, error) { return r, nil }
	}
	reqs := closedLoop(submit, p, pl, inputs, time.Now().Add(time.Hour))
	if len(reqs) != 2 || reqs[0].err != nil || reqs[1].err == nil {
		t.Fatalf("want the reply within %g to pass and the one beyond it to fail, got %+v", tolerance, reqs)
	}
	if s := summarize(reqs); s.failed != 1 {
		t.Fatalf("summarize counted %d failures, want 1", s.failed)
	}
}

func TestPlanIsReproducibleFromSeed(t *testing.T) {
	w, err := lookupWorkload("mixed-rtt2ms")
	if err != nil {
		t.Fatal(err)
	}
	eligible := []int{2, 3, 5, 7, 11, 13}
	a := w.makePlan(42, 1, 30, eligible)
	b := w.makePlan(42, 1, 30, eligible)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed and cycle drew different plans")
	}
	if reflect.DeepEqual(a, w.makePlan(43, 1, 30, eligible)) || reflect.DeepEqual(a, w.makePlan(42, 2, 30, eligible)) {
		t.Fatal("a different seed or cycle drew the same plan")
	}
	if len(a.rows) != 31 || len(a.due) != 30 {
		t.Fatalf("plan has %d requests and %d due times, want 31 (with warm-up) and 30", len(a.rows), len(a.due))
	}
	span := time.Duration(float64(30) / w.rate * float64(time.Second))
	for i, d := range a.due {
		if d < 0 || d >= span || (i > 0 && d < a.due[i-1]) {
			t.Fatalf("due times %v not sorted within [0, %v)", a.due, span)
		}
	}
	for _, rows := range a.rows {
		for _, r := range rows {
			if !contains(eligible, r) {
				t.Fatalf("plan picked ineligible row %d", r)
			}
		}
	}
}

func TestGeometriesCoverEveryFlush(t *testing.T) {
	w, err := lookupWorkload("mixed-rtt2ms")
	if err != nil {
		t.Fatal(err)
	}
	// 30 one-row requests at up to 4 per flush, plus the warm-up.
	want := map[int]int{1: 31, 2: 15, 3: 10, 4: 7}
	if got := w.geometries(30); !reflect.DeepEqual(got, want) {
		t.Fatalf("geometries(30) = %v, want %v", got, want)
	}
	x2, err := lookupWorkload("x2-k16")
	if err != nil {
		t.Fatal(err)
	}
	if got := x2.geometries(40); !reflect.DeepEqual(got, map[int]int{16: 41}) {
		t.Fatalf("x2-k16 geometries(40) = %v, want 41 flushes of 16 rows", got)
	}
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
