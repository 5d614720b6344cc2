package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"pasnet/internal/gateway"
	"pasnet/internal/hwmodel"
	"pasnet/internal/obs"
	"pasnet/internal/tensor"
)

// cycleResult is what one deployment measured over its timed window,
// which starts after the warm-up request and ends at the last reply.
type cycleResult struct {
	traced bool
	reqs   []request
	// warmErr is why the untimed warm-up request failed, if it did.
	warmErr   error
	images    int
	wall, cpu time.Duration

	setup, build time.Duration
	storeBytes   int64
	capImages    int

	link            linkCounts
	flushes         int64
	shed, fallbacks int64
	flushStarts     []flushStart
	phases          phaseTimes
	opMS            map[hwmodel.OpKind]float64 // per image, traced only
	closeErr        error
}

// phaseTimes are the pi.Flight phase totals over a window, from the
// pasnet_flush_phase_seconds histograms.
type phaseTimes struct {
	sum   map[string]float64 // seconds
	count map[string]int64
}

func readPhases(reg *obs.Registry) phaseTimes {
	pt := phaseTimes{sum: map[string]float64{}, count: map[string]int64{}}
	for _, h := range reg.Snapshot().Histograms {
		if h.Name == "pasnet_flush_phase_seconds" {
			pt.sum[h.Labels["phase"]] += h.Hist.Sum
			pt.count[h.Labels["phase"]] += h.Hist.Count
		}
	}
	return pt
}

func (pt phaseTimes) sub(base phaseTimes) phaseTimes {
	d := phaseTimes{sum: map[string]float64{}, count: map[string]int64{}}
	for k, v := range pt.sum {
		d.sum[k] = v - base.sum[k]
		d.count[k] = pt.count[k] - base.count[k]
	}
	return d
}

// cpuTime is the process's user+sys CPU time: both parties, the router
// and the load generator all run in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runCycle sets up one deployment, serves the warm-up request and then
// the cycle's load for at most share of wall time, and tears it down.
func runCycle(w workload, p *prepared, seed uint64, cycle int, share time.Duration, root string, traced bool) (*cycleResult, error) {
	n := w.cycleRequests(share)
	pl := w.makePlan(seed, cycle, n, p.eligible)
	inputs := make([]*tensor.Tensor, len(pl.rows))
	for i, rows := range pl.rows {
		inputs[i] = p.input(rows)
	}
	d, err := deploy(w, p, n, filepath.Join(root, fmt.Sprintf("cycle%d", cycle)), traced)
	if err != nil {
		return nil, fmt.Errorf("cycle %d setup: %w", cycle, err)
	}
	res := &cycleResult{traced: traced, setup: d.setup, build: d.build, storeBytes: d.storeBytes, capImages: d.capImages}

	logits, err := d.rt.Submit(backbone, inputs[0])
	if err == nil {
		err = p.check(pl.rows[0], logits)
	}
	res.warmErr = err

	base := d.status()
	linkBase := d.link.counts()
	d.link.takeFlushes()
	var phaseBase phaseTimes
	if traced {
		phaseBase = readPhases(d.reg)
		d.reg.OpFeed().Reset()
	}
	submit := func(x *tensor.Tensor) func() ([]float64, error) { return d.rt.SubmitAsync(backbone, x) }
	cpu0 := cpuTime()
	start := time.Now()
	if w.openLoop() {
		res.reqs = openLoop(submit, p, pl, inputs, start)
	} else {
		res.reqs = closedLoop(submit, p, pl, inputs, start.Add(share))
	}
	end := start
	for _, q := range res.reqs {
		if q.done.After(end) {
			end = q.done
		}
		if q.err == nil {
			res.images += q.rows
		}
	}
	res.wall = end.Sub(start)
	res.cpu = cpuTime() - cpu0
	res.link = d.link.counts().sub(linkBase)
	st := d.status()
	res.flushes = st.Flushes - base.Flushes
	res.shed = st.Shed
	res.fallbacks = int64(st.Fallbacks)
	if traced {
		res.flushStarts = d.link.takeFlushes()
		res.phases = readPhases(d.reg).sub(phaseBase)
		if res.opMS, err = opTimes(d.rt, p.ops); err != nil {
			return nil, errors.Join(err, d.close())
		}
	}
	res.closeErr = d.close()
	return res, nil
}

// submitFunc enqueues one request and returns the wait for its reply
// (gateway.Router.SubmitAsync bound to the benchmark's model).
type submitFunc func(x *tensor.Tensor) func() ([]float64, error)

// closedLoop is one client sending its next request when the previous
// reply arrives, until the plan or the deadline runs out.
func closedLoop(submit submitFunc, p *prepared, pl plan, inputs []*tensor.Tensor, deadline time.Time) []request {
	var reqs []request
	for i := 1; i < len(pl.rows); i++ {
		now := time.Now()
		if !now.Before(deadline) {
			break
		}
		q := request{origin: now, sent: now, rows: len(pl.rows[i])}
		logits, err := submit(inputs[i])()
		q.done = time.Now()
		if err == nil {
			err = p.check(pl.rows[i], logits)
		}
		q.err = err
		reqs = append(reqs, q)
	}
	return reqs
}

// openLoop sends each request at its due time whatever the backlog; a
// reply is collected on its own goroutine so a slow reply never delays a
// later send. Latency runs from the due time, so a stalled generator
// still charges the wait to the requests it delayed.
func openLoop(submit submitFunc, p *prepared, pl plan, inputs []*tensor.Tensor, start time.Time) []request {
	reqs := make([]request, len(pl.due))
	var wg sync.WaitGroup
	for i, off := range pl.due {
		due := start.Add(off)
		time.Sleep(time.Until(due))
		q := &reqs[i]
		q.origin, q.sent, q.rows = due, time.Now(), len(pl.rows[i+1])
		wait := submit(inputs[i+1])
		wg.Add(1)
		go func(rows []int) {
			defer wg.Done()
			logits, err := wait()
			q.done = time.Now()
			if err == nil {
				err = p.check(rows, logits)
			}
			q.err = err
		}(pl.rows[i+1])
	}
	wg.Wait()
	return reqs
}

// opTimes folds the router's per-op feed into per-image milliseconds per
// op kind, summed over the model's op list. An op the feed never saw
// contributes nothing, which shows as the evaluate residual.
func opTimes(rt *gateway.Router, ops []hwmodel.NetOp) (map[hwmodel.OpKind]float64, error) {
	lut, err := rt.HarvestLUT(hwmodel.DefaultConfig(), "servebench")
	if err != nil {
		return nil, err
	}
	out := map[hwmodel.OpKind]float64{}
	for _, op := range ops {
		if c, ok := lut.Entries[op.Key()]; ok {
			out[op.Kind] += c.TotalSec * 1e3
		}
	}
	return out, nil
}
