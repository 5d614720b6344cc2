package sched

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pasnet/internal/tensor"
)

// fakeSession is a controllable FlushSession: it "evaluates" a flush by
// sleeping perRow per batch row and returns one logit per row — the row's
// first element, so tests can check each submitter gets its own rows —
// fails flushes on command, and records what it served. It lets the
// dispatcher and lifecycle be tested without standing up 2PC pairs.
type fakeSession struct {
	perRow time.Duration
	// failAfter: fail every flush once this many have succeeded (-1:
	// never fail).
	failAfter int32

	flushes atomic.Int32
	rows    atomic.Int64
	killed  atomic.Bool
	closed  atomic.Bool

	mu sync.Mutex
	// batches holds every BeginFlush call's row tags (each row's first
	// element) in call order, failed calls included.
	batches [][]float64
}

func newFakeSession(perRow time.Duration, failAfter int32) *fakeSession {
	return &fakeSession{perRow: perRow, failAfter: failAfter}
}

func (f *fakeSession) BeginFlush(batch *tensor.Tensor) (func() ([]float64, error), error) {
	rows := batch.Shape[0]
	tags := make([]float64, rows)
	for i := range tags {
		tags[i] = batch.Data[i*batch.Len()/rows]
	}
	f.mu.Lock()
	f.batches = append(f.batches, tags)
	f.mu.Unlock()
	if f.failAfter >= 0 && f.flushes.Load() >= f.failAfter {
		return nil, fmt.Errorf("fake pair died (flush %d)", f.flushes.Load())
	}
	if f.perRow > 0 {
		time.Sleep(time.Duration(rows) * f.perRow)
	}
	f.flushes.Add(1)
	f.rows.Add(int64(rows))
	return func() ([]float64, error) { return tags, nil }, nil
}

// recorded returns the row tags of every BeginFlush call so far.
func (f *fakeSession) recorded() [][]float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([][]float64(nil), f.batches...)
}

func (f *fakeSession) RemainingBudget() int { return 42 }
func (f *fakeSession) Fallbacks() int       { return 0 }
func (f *fakeSession) Close() error         { f.closed.Store(true); return nil }
func (f *fakeSession) Kill()                { f.killed.Store(true) }

func query(rows int) *tensor.Tensor { return tensor.New(rows, 1, 2, 2) }

// tagged is a one-row query whose first element is tag.
func tagged(tag float64) *tensor.Tensor {
	x := query(1)
	x.Data[0] = tag
	return x
}

// addLanes registers n fake lanes for one model and returns them.
func addLanes(t *testing.T, d *Dispatcher, model string, sessions ...FlushSession) {
	t.Helper()
	for i, s := range sessions {
		if err := d.AddShard(model, i, s); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRoundRobinRotation pins the baseline policy: sequential queries
// rotate over healthy lanes exactly like the pre-scheduler router.
func TestRoundRobinRotation(t *testing.T) {
	d := NewDispatcher(Options{Batch: 1, Policy: RoundRobin})
	a, b := newFakeSession(0, -1), newFakeSession(0, -1)
	addLanes(t, d, "m", a, b)
	for q := 0; q < 6; q++ {
		if _, err := d.Submit("m", query(1)); err != nil {
			t.Fatalf("query %d: %v", q, err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if a.flushes.Load() != 3 || b.flushes.Load() != 3 {
		t.Fatalf("round-robin served %d/%d flushes, want 3/3", a.flushes.Load(), b.flushes.Load())
	}
	if !a.closed.Load() || !b.closed.Load() {
		t.Fatal("Close must close every lane's session")
	}
}

// TestQueueAwareSteersAroundBacklog pins cold-start steering: with no
// latency data yet, queue-aware picking scores pure backlog, so while
// one lane chews a heavy flush the following light queries flow to the
// emptier lane instead of blindly alternating.
func TestQueueAwareSteersAroundBacklog(t *testing.T) {
	d := NewDispatcher(Options{Batch: 1, Policy: QueueAware})
	// Equal per-row speed on both lanes: neither drains fast enough to
	// perturb the counters mid-burst, so the picks are deterministic.
	busy, idle := newFakeSession(20*time.Millisecond, -1), newFakeSession(20*time.Millisecond, -1)
	addLanes(t, d, "m", busy, idle)
	// The heavy query lands on lane 0 (rotating start, empty fleet) and
	// keeps 8 rows in flight there for ~160ms.
	heavyWait := d.SubmitAsync("m", query(8))
	time.Sleep(5 * time.Millisecond) // let the worker move it in flight
	waits := make([]func() ([]float64, error), 6)
	for q := range waits {
		waits[q] = d.SubmitAsync("m", query(1))
	}
	for q, wait := range waits {
		if _, err := wait(); err != nil {
			t.Fatalf("light query %d: %v", q, err)
		}
	}
	if _, err := heavyWait(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Backlog scoring sends lights to the idle lane until its queue depth
	// outweighs the busy lane's 8 in-flight rows (the sixth light tips
	// the comparison): 5 of 6 steer away. Round-robin would send 3.
	if busy.rows.Load() != 9 || idle.rows.Load() != 5 {
		t.Fatalf("queue-aware routed %d rows to the busy lane and %d to the idle one; want 9 and 5",
			busy.rows.Load(), idle.rows.Load())
	}
}

// TestQueueAwareSteersByLatency pins measured steering: once the latency
// models are primed, a persistently slow lane is avoided even with equal
// backlogs — the estimated-completion score, not just depth.
func TestQueueAwareSteersByLatency(t *testing.T) {
	d := NewDispatcher(Options{Batch: 1, Policy: QueueAware})
	slow, fast := newFakeSession(60*time.Millisecond, -1), newFakeSession(time.Millisecond, -1)
	addLanes(t, d, "m", slow, fast)
	// Prime both models: the first query rotates onto the slow lane, the
	// second ties on estimates and rotates onto the fast lane.
	for q := 0; q < 2; q++ {
		if _, err := d.Submit("m", query(1)); err != nil {
			t.Fatal(err)
		}
	}
	if slow.rows.Load() != 1 || fast.rows.Load() != 1 {
		t.Fatalf("priming spread %d/%d rows, want 1/1", slow.rows.Load(), fast.rows.Load())
	}
	// Burst: every query estimates ~60ms on the slow lane vs ~1ms (plus a
	// shallow queue) on the fast one.
	waits := make([]func() ([]float64, error), 6)
	for q := range waits {
		waits[q] = d.SubmitAsync("m", query(1))
	}
	for q, wait := range waits {
		if _, err := wait(); err != nil {
			t.Fatalf("burst query %d: %v", q, err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if slow.rows.Load() != 1 {
		t.Fatalf("measured-slow lane served %d rows after priming, want none beyond the primer", slow.rows.Load())
	}
}

// TestBatchGathering pins batching on one lane. Work-conserving (no
// window): queries queued while a flush runs are gathered into the next
// flush, up to Options.Batch. With a window: stragglers arriving within
// it join the started batch, and a partial batch still flushes once the
// window runs out. Either way queries pack in SubmitAsync order and each
// wait gets its own query's logits back.
func TestBatchGathering(t *testing.T) {
	cases := []struct {
		name    string
		window  time.Duration
		queries int
		gap     time.Duration // pause between submissions
		// minFlushes..maxFlushes bounds the flush count.
		minFlushes, maxFlushes int32
	}{
		{"work-conserving", 0, 9, 0, 3, 9},
		{"window", 300 * time.Millisecond, 3, 5 * time.Millisecond, 1, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			const batch = 4
			d := NewDispatcher(Options{Batch: batch, Window: c.window, Policy: RoundRobin})
			s := newFakeSession(5*time.Millisecond, -1)
			addLanes(t, d, "m", s)
			var waits []func() ([]float64, error)
			for q := 0; q < c.queries; q++ {
				if q > 0 {
					time.Sleep(c.gap)
				}
				waits = append(waits, d.SubmitAsync("m", tagged(float64(100+q))))
			}
			for q, wait := range waits {
				logits, err := wait()
				if err != nil {
					t.Fatalf("query %d: %v", q, err)
				}
				if len(logits) != 1 || logits[0] != float64(100+q) {
					t.Fatalf("query %d got logits %v, want its own row [%d]", q, logits, 100+q)
				}
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			if f := s.flushes.Load(); f < c.minFlushes || f > c.maxFlushes {
				t.Fatalf("%d queries at Batch=%d ran %d flushes, want %d..%d", c.queries, batch, f, c.minFlushes, c.maxFlushes)
			}
			if s.rows.Load() != int64(c.queries) {
				t.Fatalf("served %d rows, want %d", s.rows.Load(), c.queries)
			}
			next := 100.0
			for _, tags := range s.recorded() {
				if len(tags) > batch {
					t.Fatalf("flush of %d rows exceeds Batch=%d", len(tags), batch)
				}
				for _, tag := range tags {
					if tag != next {
						t.Fatalf("flushes packed %v, want submission order", s.recorded())
					}
					next++
				}
			}
		})
	}
}

// TestBatchCountCapAndDemux pins count-capped batching under concurrent
// blocking submitters: with no window, no flush carries more than
// Options.Batch rows, every row is served exactly once, and each
// submitter gets its own query's logits back.
func TestBatchCountCapAndDemux(t *testing.T) {
	const batch, k = 3, 9
	d := NewDispatcher(Options{Batch: batch, Policy: RoundRobin})
	s := newFakeSession(2*time.Millisecond, -1)
	addLanes(t, d, "m", s)
	var wg sync.WaitGroup
	errCh := make(chan error, k)
	for q := 0; q < k; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			logits, err := d.Submit("m", tagged(float64(100+q)))
			if err != nil {
				errCh <- fmt.Errorf("query %d: %w", q, err)
				return
			}
			if len(logits) != 1 || logits[0] != float64(100+q) {
				errCh <- fmt.Errorf("query %d got logits %v, want its own row [%d]", q, logits, 100+q)
			}
		}(q)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	seen := map[float64]bool{}
	for _, tags := range s.recorded() {
		if len(tags) > batch {
			t.Fatalf("flush of %d rows exceeds Batch=%d: %v", len(tags), batch, s.recorded())
		}
		for _, tag := range tags {
			if seen[tag] {
				t.Fatalf("row %v served twice: %v", tag, s.recorded())
			}
			seen[tag] = true
		}
	}
	if len(seen) != k || s.rows.Load() != k {
		t.Fatalf("served %d distinct of %d rows, want %d", len(seen), s.rows.Load(), k)
	}
}

// TestSubmitAsyncPreservesOrder pins packing order: a full batch of
// SubmitAsync queries is packed in submission order, and each wait
// returns its own query's logits.
func TestSubmitAsyncPreservesOrder(t *testing.T) {
	const batch = 4
	d := NewDispatcher(Options{Batch: batch, Policy: RoundRobin})
	s := newFakeSession(time.Millisecond, -1)
	addLanes(t, d, "m", s)
	waits := make([]func() ([]float64, error), batch)
	for q := range waits {
		waits[q] = d.SubmitAsync("m", tagged(float64(10+q)))
	}
	for q, wait := range waits {
		logits, err := wait()
		if err != nil {
			t.Fatal(err)
		}
		if len(logits) != 1 || logits[0] != float64(10+q) {
			t.Fatalf("wait %d got %v, want [%d]", q, logits, 10+q)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	next := 10.0
	for _, tags := range s.recorded() {
		for _, tag := range tags {
			if tag != next {
				t.Fatalf("flushes packed %v, want submission order", s.recorded())
			}
			next++
		}
	}
}

// TestFailoverToHealthyLane pins transparent failover: a lane that dies
// mid-deployment loses no queries — they re-dispatch to the surviving
// lane, and the dead lane reports its terminal error.
func TestFailoverToHealthyLane(t *testing.T) {
	d := NewDispatcher(Options{Batch: 1, Policy: RoundRobin})
	dying, healthy := newFakeSession(0, 1), newFakeSession(0, -1)
	addLanes(t, d, "m", dying, healthy)
	for q := 0; q < 5; q++ {
		if _, err := d.Submit("m", query(1)); err != nil {
			t.Fatalf("query %d: %v", q, err)
		}
	}
	var downs, up int
	for _, st := range d.Status() {
		if st.Down != "" {
			downs++
			if !strings.Contains(st.Down, "fake pair died") {
				t.Fatalf("down reason %q must carry the terminal error", st.Down)
			}
			if !dying.killed.Load() {
				t.Fatal("a dead lane's session must be killed")
			}
		} else {
			up++
		}
	}
	if downs != 1 || up != 1 {
		t.Fatalf("want exactly one down and one healthy lane, got %d/%d", downs, up)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFlushErrorFansOut pins the all-lanes-down path: a lone lane's
// failed flush reaches every co-batched submitter with a descriptive
// error. The window gathers three queries into the one flush that dies.
func TestFlushErrorFansOut(t *testing.T) {
	d := NewDispatcher(Options{Batch: 4, Window: 300 * time.Millisecond})
	dead := newFakeSession(0, 0)
	addLanes(t, d, "m", dead)
	var waits []func() ([]float64, error)
	for q := 0; q < 3; q++ {
		waits = append(waits, d.SubmitAsync("m", tagged(float64(q))))
	}
	for q, wait := range waits {
		if _, err := wait(); err == nil || !strings.Contains(err.Error(), "all 1 shard(s)") {
			t.Fatalf("co-batched query %d: all-down must fail descriptively, got: %v", q, err)
		}
	}
	if got := dead.recorded(); len(got) != 1 || len(got[0]) != 3 {
		t.Fatalf("the three queries must share the one failed flush, got flushes %v", got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestUnknownModel pins the no-lane error.
func TestUnknownModel(t *testing.T) {
	d := NewDispatcher(Options{})
	if _, err := d.Submit("ghost", query(1)); err == nil || !strings.Contains(err.Error(), "no model") {
		t.Fatalf("unknown model must fail descriptively, got: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseDrainsAndRejects pins graceful shutdown: queries accepted
// before Close all complete, submissions after Close get
// ErrDispatcherClosed, and Close is idempotent.
func TestCloseDrainsAndRejects(t *testing.T) {
	d := NewDispatcher(Options{Batch: 2, Policy: RoundRobin})
	s := newFakeSession(3*time.Millisecond, -1)
	addLanes(t, d, "m", s)
	var waits []func() ([]float64, error)
	for q := 0; q < 8; q++ {
		waits = append(waits, d.SubmitAsync("m", query(1)))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for q, wait := range waits {
		if _, err := wait(); err != nil {
			t.Fatalf("pre-close query %d must drain, got: %v", q, err)
		}
	}
	if _, err := d.Submit("m", query(1)); !errors.Is(err, ErrDispatcherClosed) {
		t.Fatalf("post-close submit must get ErrDispatcherClosed, got: %v", err)
	}
	if !s.closed.Load() {
		t.Fatal("Close must close the session")
	}
	if err := d.Close(); err != nil {
		t.Fatal("Close must be idempotent")
	}
}

// TestSubmitVsCloseRace hammers concurrent submissions against Close:
// every submitter must get either its logits or a descriptive shutdown
// error — never a hang, a lost reply, or a panic. Run under -race in CI.
func TestSubmitVsCloseRace(t *testing.T) {
	for round := 0; round < 8; round++ {
		d := NewDispatcher(Options{Batch: 4, Policy: QueueAware, QueueCap: 4})
		addLanes(t, d, "m", newFakeSession(100*time.Microsecond, -1), newFakeSession(100*time.Microsecond, -1))
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for q := 0; q < 10; q++ {
					logits, err := d.Submit("m", query(1))
					switch {
					case err == nil:
						if len(logits) != 1 {
							t.Errorf("got %d logits for a 1-row query", len(logits))
							return
						}
					case errors.Is(err, ErrDispatcherClosed):
						return
					default:
						t.Errorf("submit vs close: unexpected error: %v", err)
						return
					}
				}
			}()
		}
		time.Sleep(time.Duration(round) * time.Millisecond)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
}

// TestStatusFields pins the new telemetry: budget and EWMA flow from the
// session and completed flushes into Status.
func TestStatusFields(t *testing.T) {
	d := NewDispatcher(Options{Batch: 1, Policy: RoundRobin})
	addLanes(t, d, "m", newFakeSession(2*time.Millisecond, -1))
	if _, err := d.Submit("m", query(4)); err != nil {
		t.Fatal(err)
	}
	sts := d.Status()
	if len(sts) != 1 {
		t.Fatalf("want 1 lane status, got %d", len(sts))
	}
	st := sts[0]
	if st.Budget != 42 {
		t.Fatalf("budget %d must come from the session's stamp round, want 42", st.Budget)
	}
	if st.EWMAFlushMS <= 0 && st.EWMARowMS <= 0 {
		t.Fatal("the latency model must be primed after the first completed flush")
	}
	if st.Queries != 1 || st.Flushes != 1 || st.QueuedRows != 0 || st.InFlightRows != 0 {
		t.Fatalf("counters %+v, want 1 query / 1 flush and empty backlog", st)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}
