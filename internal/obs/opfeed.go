package obs

import (
	"fmt"
	"sync"

	"pasnet/internal/hwmodel"
)

// OpFeed accumulates per-operator online timings from pi engines: the
// one per-op timing path. Serving sessions record every Nth flush and a
// calibration run records every op, and the feed keeps running per-key
// aggregates instead of per-occurrence slices, so a router can serve
// indefinitely and still harvest a calibration-grade latency table at
// any moment.
type OpFeed struct {
	mu   sync.Mutex
	aggs map[string]*opAgg
}

// opAgg is one operator key's running aggregate.
type opAgg struct {
	op     hwmodel.NetOp
	rowSec float64 // sum over samples of (seconds / rows)
	sec    float64 // sum over samples of seconds
	n      int64
}

// OpStat is one operator key's aggregate, as read by Stats.
type OpStat struct {
	// Op is the operator identity (kind and geometry) the key names.
	Op hwmodel.NetOp
	// Samples is the number of timings recorded under the key.
	Samples int64
	// RowSec is the mean per-row seconds over the samples.
	RowSec float64
	// Sec is the summed wall seconds over the samples, whole flushes.
	Sec float64
}

// Record folds one sampled op timing into the feed.
func (f *OpFeed) Record(kind hwmodel.OpKind, shape hwmodel.OpShape, rows int, seconds float64) {
	if f == nil || rows < 1 || seconds < 0 {
		return
	}
	op := hwmodel.NetOp{Kind: kind, Shape: shape}
	key := op.Key()
	f.mu.Lock()
	a := f.aggs[key]
	if a == nil {
		if f.aggs == nil {
			f.aggs = map[string]*opAgg{}
		}
		a = &opAgg{op: op}
		f.aggs[key] = a
	}
	a.rowSec += seconds / float64(rows)
	a.sec += seconds
	a.n++
	f.mu.Unlock()
}

// Keys returns the number of distinct operator keys observed.
func (f *OpFeed) Keys() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.aggs)
}

// Samples returns the total number of op timings recorded.
func (f *OpFeed) Samples() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n := int64(0)
	for _, a := range f.aggs {
		n += a.n
	}
	return n
}

// Reset discards all aggregates, e.g. after a harvest that should not
// bleed into the next calibration window.
func (f *OpFeed) Reset() {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.aggs = nil
	f.mu.Unlock()
}

// Stats returns every operator key's aggregate, keyed by NetOp.Key().
func (f *OpFeed) Stats() map[string]OpStat {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	stats := make(map[string]OpStat, len(f.aggs))
	for key, a := range f.aggs {
		stats[key] = OpStat{Op: a.op, Samples: a.n, RowSec: a.rowSec / float64(a.n), Sec: a.sec}
	}
	return stats
}

// HarvestLUT fits the feed into a hwmodel.LUT with hwmodel.FitLUT, each
// key's measurement being its mean per-row seconds. The result
// round-trips through the PASLUT1 artifact (hwmodel.WriteFile/
// ReadLUTFile) and feeds nas.Options.LUT, closing the
// serve→recalibrate→search loop without an owned probe transport.
func (f *OpFeed) HarvestLUT(hw hwmodel.Config, source string) (*hwmodel.LUT, error) {
	if err := hw.Validate(); err != nil {
		return nil, fmt.Errorf("obs: harvest analytic fallback: %w", err)
	}
	if f == nil {
		return nil, fmt.Errorf("obs: harvest of nil op feed")
	}
	stats := f.Stats()
	if len(stats) == 0 {
		return nil, fmt.Errorf("obs: op feed has no samples to harvest")
	}
	if source == "" {
		source = "harvested/obs"
	}
	readings := make([]hwmodel.Measured, 0, len(stats))
	for _, st := range stats {
		readings = append(readings, hwmodel.Measured{Op: st.Op, Sec: st.RowSec})
	}
	return hwmodel.FitLUT(hw, source, readings), nil
}
