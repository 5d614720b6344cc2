package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"pasnet/internal/hwmodel"
)

// missMS stands in for a latency percentile that lands on a failed
// request (an infinite latency JSON cannot carry).
const missMS = 1e9

// finite maps an infinite latency to missMS.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return missMS
	}
	return v
}

// e2eSummary is a run's end-to-end picture.
type e2eSummary struct {
	lat     latencySummary
	metrics map[string]metric
}

// totals sums the figures every metric divides.
type totals struct {
	reqs            []request
	images          int
	wall, cpu       time.Duration
	link            linkCounts
	flushes         int64
	storeBytes      int64
	capImages       int
	setups, builds  []float64
	shed, fallbacks int64
}

func sumCycles(cycles []*cycleResult) totals {
	var t totals
	for _, c := range cycles {
		t.reqs = append(t.reqs, c.reqs...)
		t.images += c.images
		t.wall += c.wall
		t.cpu += c.cpu
		t.link = t.link.add(c.link)
		t.flushes += c.flushes
		t.storeBytes += c.storeBytes
		t.capImages += c.capImages
		t.setups = append(t.setups, c.setup.Seconds())
		t.builds = append(t.builds, c.build.Seconds())
		t.shed += c.shed
		t.fallbacks += c.fallbacks
	}
	return t
}

// perImage divides by the image count, 0 when nothing completed.
func (t totals) perImage(v float64) float64 {
	if t.images == 0 {
		return 0
	}
	return v / float64(t.images)
}

// perFlush divides by the flush count, 0 when nothing flushed.
func (t totals) perFlush(v float64) float64 {
	if t.flushes == 0 {
		return 0
	}
	return v / float64(t.flushes)
}

// endToEnd computes the untraced metrics over every cycle of a run.
func endToEnd(cycles []*cycleResult) e2eSummary {
	t := sumCycles(cycles)
	lat := summarize(t.reqs)
	okFrac := 1.0
	if lat.n > 0 {
		okFrac = 1 - float64(lat.failed)/float64(lat.n)
	}
	return e2eSummary{lat: lat, metrics: map[string]metric{
		"request_p50_ms":          {finite(lat.p50), "ms"},
		"request_p90_ms":          {finite(lat.p90), "ms"},
		"images_per_s":            {float64(t.images) / t.wall.Seconds(), "1/s"},
		"cpu_ms_per_image":        {t.perImage(ms(t.cpu)), "ms"},
		"online_bytes_per_image":  {t.perImage(float64(t.link.sentTot + t.link.rcvTot)), "B"},
		"offline_bytes_per_image": {float64(t.storeBytes) / float64(t.capImages), "B"},
		"setup_s":                 {median(t.setups), "s"},
		"ok_frac":                 {okFrac, "frac"},
	}}
}

// perLayer computes the traced run's per-layer metrics: layer figures
// from its traced cycles, the tracing overhead from traced against
// untraced cycles.
func perLayer(w workload, p *prepared, cycles []*cycleResult, seed uint64) (map[string]metric, error) {
	var tc, uc []*cycleResult
	for _, c := range cycles {
		if c.traced {
			tc = append(tc, c)
		} else {
			uc = append(uc, c)
		}
	}
	t, u, all := sumCycles(tc), sumCycles(uc), sumCycles(cycles)
	tl, ul := summarize(t.reqs), summarize(u.reqs)
	rows := 0
	for _, q := range t.reqs {
		rows += q.rows
	}
	rowsPerFlush := t.perFlush(float64(rows))

	phases := phaseTimes{sum: map[string]float64{}, count: map[string]int64{}}
	opMS := map[hwmodel.OpKind]float64{}
	for _, c := range tc {
		for k := range c.phases.sum {
			phases.sum[k] += c.phases.sum[k]
			phases.count[k] += c.phases.count[k]
		}
		for k, v := range c.opMS {
			opMS[k] += v / float64(len(tc))
		}
	}
	phaseMS := func(names ...string) float64 {
		v := 0.0
		for _, n := range names {
			if phases.count[n] > 0 {
				v += phases.sum[n] * 1e3 / float64(phases.count[n])
			}
		}
		return v
	}
	flushMS := phaseMS("ingest", "evaluate", "reveal_send", "reveal_recv", "decode")

	// Queue wait: a request's flush starts with the flush's query-shape
	// frame on the link, and the single lane flushes requests in arrival
	// order, so the i-th request rides the flush holding its rows.
	var waitSum, latSum float64
	var waitN int
	for _, c := range tc {
		waits := queueWaits(c.reqs, c.flushStarts)
		for i, q := range c.reqs {
			if q.err == nil && i < len(waits) {
				waitSum += waits[i]
				latSum += q.latencyMS()
				waitN++
			}
		}
	}
	queueWait, meanLat := 0.0, 0.0
	if waitN > 0 {
		queueWait, meanLat = waitSum/float64(waitN), latSum/float64(waitN)
	}
	latResid := 0.0
	if meanLat > 0 {
		latResid = 1 - (queueWait+flushMS)/meanLat
	}
	evalPerImage := 0.0
	if rows > 0 {
		evalPerImage = phases.sum["evaluate"] * 1e3 / float64(rows)
	}
	opSum := 0.0
	for _, k := range []hwmodel.OpKind{hwmodel.OpReLU, hwmodel.OpConv, hwmodel.OpX2Act, hwmodel.OpMaxPool, hwmodel.OpAvgPool, hwmodel.OpFC} {
		opSum += opMS[k]
	}
	evalResid := 0.0
	if evalPerImage > 0 {
		evalResid = 1 - opSum/evalPerImage
	}

	otPerImage := otInstancesPerImage(p.ops)
	otUS, otBytes, err := timeOT(int(math.Round(float64(otPerImage) * rowsPerFlush)))
	if err != nil {
		return nil, err
	}
	kRows := int(math.Max(1, math.Round(rowsPerFlush)))
	macs, convMS, gmacs := timeConvs(p.ops, kRows)

	wordB := float64(t.link.sent[classWord] + t.link.recv[classWord])
	rawB := float64(t.link.sent[classRaw] + t.link.recv[classRaw])
	ctrlB := float64(t.link.sent[classCtrl] + t.link.recv[classCtrl])

	m := map[string]metric{
		"gateway.requests": {float64(len(t.reqs)), "count"},
		"gateway.failed":   {float64(tl.failed), "count"},

		"sched.rows_per_flush": {rowsPerFlush, "rows"},
		"sched.shed":           {float64(t.shed), "count"},
		"sched.queue_wait_ms":  {queueWait, "ms"},

		"pi.ingest_ms_per_flush":   {phaseMS("ingest"), "ms"},
		"pi.evaluate_ms_per_flush": {phaseMS("evaluate"), "ms"},
		"pi.reveal_ms_per_flush":   {phaseMS("reveal_send", "reveal_recv"), "ms"},
		"pi.decode_ms_per_flush":   {phaseMS("decode"), "ms"},

		"mpc.relu_ms_per_image":  {opMS[hwmodel.OpReLU], "ms"},
		"mpc.conv_ms_per_image":  {opMS[hwmodel.OpConv], "ms"},
		"mpc.x2act_ms_per_image": {opMS[hwmodel.OpX2Act], "ms"},
		"mpc.pool_ms_per_image":  {opMS[hwmodel.OpMaxPool] + opMS[hwmodel.OpAvgPool], "ms"},
		"mpc.fc_ms_per_image":    {opMS[hwmodel.OpFC], "ms"},

		"ot.instances_per_image": {float64(otPerImage), "count"},
		"ot.us_per_instance":     {otUS, "us"},
		"ot.bytes_per_instance":  {otBytes, "B"},

		"kernel.macs_per_image":    {float64(macs), "count"},
		"kernel.conv_ms_per_image": {convMS, "ms"},
		"kernel.gmacs_per_s":       {gmacs, "GMAC/s"},

		"transport.sent_bytes_per_image":   {t.perImage(float64(t.link.sentTot)), "B"},
		"transport.recv_bytes_per_image":   {t.perImage(float64(t.link.rcvTot)), "B"},
		"transport.u64_bytes_per_image":    {t.perImage(wordB), "B"},
		"transport.raw_bytes_per_image":    {t.perImage(rawB), "B"},
		"transport.ctrl_bytes_per_image":   {t.perImage(ctrlB), "B"},
		"transport.frames_per_flush":       {t.perFlush(float64(t.link.frames)), "count"},
		"transport.recv_wait_ms_per_flush": {t.perFlush(ms(t.link.recvWait)), "ms"},
		"transport.rounds_per_flush":       {t.perFlush(float64(t.link.rounds)), "count"},

		"corr.build_s":               {median(all.builds), "s"},
		"corr.store_bytes_per_image": {float64(all.storeBytes) / float64(all.capImages), "B"},
		"corr.fallback_flushes":      {float64(all.fallbacks), "count"},

		"obs.overhead_p50_frac": {ratio(tl.p50, ul.p50) - 1, "frac"},
		"obs.overhead_cpu_frac": {ratio(t.perImage(ms(t.cpu)), u.perImage(ms(u.cpu))) - 1, "frac"},

		"load.gen_lag_p99_ms": {genLagP99(t.reqs), "ms"},

		"resid.latency_frac":  {latResid, "frac"},
		"resid.evaluate_frac": {evalResid, "frac"},
	}
	fmt.Printf("  traced split: flush %.3f ms = ingest %.3f + evaluate %.3f + reveal %.3f + decode %.3f; queue wait %.3f ms; recv wait %.3f ms/flush\n",
		flushMS, m["pi.ingest_ms_per_flush"].Value, m["pi.evaluate_ms_per_flush"].Value,
		m["pi.reveal_ms_per_flush"].Value, m["pi.decode_ms_per_flush"].Value, queueWait,
		m["transport.recv_wait_ms_per_flush"].Value)
	fmt.Printf("  op time per image: relu %.3f, conv %.3f, x2act %.3f, pool %.3f, fc %.3f ms (evaluate %.3f ms/image)\n",
		opMS[hwmodel.OpReLU], opMS[hwmodel.OpConv], opMS[hwmodel.OpX2Act],
		m["mpc.pool_ms_per_image"].Value, opMS[hwmodel.OpFC], evalPerImage)
	fmt.Printf("  residuals: %.1f%% of request latency outside queue wait + flush phases; %.1f%% of evaluate outside the per-kind op sum\n",
		100*latResid, 100*evalResid)
	if err := writeSpans(w, seed, cycles); err != nil {
		return nil, err
	}
	return m, nil
}

// ratio is a/b, 1 when b is not positive.
func ratio(a, b float64) float64 {
	if b <= 0 || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return 1
	}
	return a / b
}

// queueWaits returns each request's wait in ms from its origin to the
// start of the flush that carried it, mapping requests in submission
// order onto flush rows in flush order.
func queueWaits(reqs []request, flushes []flushStart) []float64 {
	waits := make([]float64, 0, len(reqs))
	fi, left := 0, 0
	for _, q := range reqs {
		if left == 0 {
			if fi >= len(flushes) {
				break
			}
			left = flushes[fi].rows
			fi++
		}
		waits = append(waits, ms(flushes[fi-1].at.Sub(q.origin)))
		left -= q.rows
		if left < 0 {
			break // a request split across flushes: the mapping is lost
		}
	}
	return waits
}

// span is one Submit call in the written trace, timed in ms from the
// origin of its cycle's first timed request.
type span struct {
	Cycle   int     `json:"cycle"`
	ID      int     `json:"id"`
	Rows    int     `json:"rows"`
	StartMS float64 `json:"start_ms"`
	SentMS  float64 `json:"sent_ms"`
	EndMS   float64 `json:"end_ms"`
	Err     string  `json:"err,omitempty"`
}

// flushSpan is one flush start seen on the link.
type flushSpan struct {
	Cycle   int     `json:"cycle"`
	StartMS float64 `json:"start_ms"`
	Rows    int     `json:"rows"`
}

// writeSpans writes the traced cycles' gateway spans and flush starts to
// the build directory, once the run has ended.
func writeSpans(w workload, seed uint64, cycles []*cycleResult) error {
	type doc struct {
		Workload string      `json:"workload"`
		Seed     uint64      `json:"seed"`
		Gateway  []span      `json:"gateway"`
		Flushes  []flushSpan `json:"flushes"`
	}
	d := doc{Workload: w.name, Seed: seed}
	for ci, c := range cycles {
		if !c.traced || len(c.reqs) == 0 {
			continue
		}
		t0 := c.reqs[0].origin
		for i, q := range c.reqs {
			s := span{Cycle: ci, ID: i, Rows: q.rows, StartMS: ms(q.origin.Sub(t0)), SentMS: ms(q.sent.Sub(t0)), EndMS: ms(q.done.Sub(t0))}
			if q.err != nil {
				s.Err = q.err.Error()
			}
			d.Gateway = append(d.Gateway, s)
		}
		for _, f := range c.flushStarts {
			d.Flushes = append(d.Flushes, flushSpan{Cycle: ci, StartMS: ms(f.at.Sub(t0)), Rows: f.rows})
		}
	}
	data, err := json.Marshal(d)
	if err != nil {
		return err
	}
	dir := filepath.Join(buildDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("  spans written to %s\n", path)
	return nil
}
