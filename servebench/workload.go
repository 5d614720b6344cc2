package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"pasnet/internal/rng"
	"pasnet/internal/sched"
)

// workload is one traffic mix the benchmark drives through the serving
// stack. Every workload runs one shard pair (one link) behind one
// load-generating client.
type workload struct {
	name string
	// class is the demo backbone's program class (see classConfig).
	class string
	// rows is the images per request.
	rows int
	// batch is the router's per-flush request cap.
	batch int
	// oneWay is the link's one-way delay; zero is the loopback pipe.
	oneWay time.Duration
	// rate is the open-loop arrival rate in requests per second; zero is
	// a closed loop with one client.
	rate     float64
	policy   sched.Policy
	pipeline bool
	// cycles is how many deployments a run sets up and serves in turn;
	// setup_s is their median and the run's serving time is split evenly
	// between them.
	cycles int
	// capacity bounds a closed-loop cycle's requests: its stores are
	// provisioned for exactly this many (plus the warm-up request), so a
	// cycle ends at its share of the run time or at the end of its store,
	// whichever comes first.
	capacity int
}

// workloads are the benchmark's traffic mixes. The reason each exists,
// the layer it loads and the layer it should leave unchanged are recorded
// in README.md, and for the gated ones in BENCHMARK.json.
var workloads = []workload{
	{
		// Interactive single-user latency: DReLU's online OT dominates.
		name: "relu-k1", class: "relu-max", rows: 1, batch: 1,
		policy: sched.RoundRobin, cycles: 5, capacity: 80,
	},
	{
		// Batch throughput: the fixed-mask conv dominates and there is no
		// OT at all. Store bytes, not the clock, bound each cycle.
		name: "x2-k16", class: "x2-avg", rows: 16, batch: 1,
		policy: sched.RoundRobin, cycles: 12, capacity: 40,
	},
	{
		// Round latency and queueing: every protocol round costs 2 ms of
		// wire time and a seeded Poisson load at a fixed rate forms a
		// queue. The rate is a constant of the workload, never derived
		// from a run. BENCHMARK.json leaves this workload out: its latency
		// waits on DelayPipe's timed receives, whose wake-ups vary with
		// host load, and its run-to-run spread reached the bound.
		name: "mixed-rtt2ms", class: "mixed", rows: 1, batch: 4,
		oneWay: time.Millisecond, rate: 4, policy: sched.QueueAware, pipeline: true,
		cycles: 4,
	},
}

// lookupWorkload finds a workload by name.
func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// openLoop reports whether requests arrive on a schedule.
func (w workload) openLoop() bool { return w.rate > 0 }

// cycleRequests is the number of requests one cycle provisions for: the
// closed loop's capacity, or the open loop's arrival count over the
// cycle's share of the run, rounded up so a run never sends fewer than
// rate × seconds.
func (w workload) cycleRequests(share time.Duration) int {
	if !w.openLoop() {
		return w.capacity
	}
	return int(math.Ceil(w.rate * share.Seconds()))
}

// geometries returns the flush geometries one cycle can produce with
// n requests, as batch rows → flushes to provision. A flush holds 1 to
// batch requests, so at k requests per flush at most n/k flushes run;
// the warm-up request adds one single-request flush.
func (w workload) geometries(n int) map[int]int {
	g := map[int]int{}
	for k := 1; k <= w.batch; k++ {
		if f := n / k; f > 0 {
			g[k*w.rows] += f
		}
	}
	g[w.rows]++
	return g
}

// cycleSeed derives the input and arrival stream of one cycle from the
// workload seed, so a run is reproducible from its seed argument alone.
func cycleSeed(seed uint64, cycle int) uint64 {
	return rng.MixSeed(seed, 0x73657276, uint64(cycle))
}

// plan is one cycle's generated load: per request its dataset rows and,
// in an open loop, its due time after the cycle starts.
type plan struct {
	rows [][]int
	due  []time.Duration
}

// makePlan draws one cycle's requests: each request takes w.rows rows
// uniformly from the eligible dataset rows, and an open loop schedules
// them as a Poisson process at w.rate conditioned on n arrivals in
// [0, n/rate) — n sorted uniform offsets — so every run sends exactly n
// requests at the stated mean rate. The first request is the warm-up.
func (w workload) makePlan(seed uint64, cycle, n int, eligible []int) plan {
	r := rng.New(cycleSeed(seed, cycle))
	p := plan{rows: make([][]int, n+1)}
	for i := range p.rows {
		idx := make([]int, w.rows)
		for j := range idx {
			idx[j] = eligible[r.Intn(len(eligible))]
		}
		p.rows[i] = idx
	}
	if w.openLoop() {
		p.due = arrivals(r, n, w.rate)
	}
	return p
}

// arrivals returns n sorted arrival offsets of a Poisson process at rate
// conditioned on n arrivals in [0, n/rate).
func arrivals(r *rng.RNG, n int, rate float64) []time.Duration {
	span := float64(n) / rate
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(r.Float64() * span * float64(time.Second))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}
