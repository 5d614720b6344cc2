package pi

import (
	"math"
	"testing"

	"pasnet/internal/hwmodel"
	"pasnet/internal/models"
	"pasnet/internal/obs"
	"pasnet/internal/tensor"
)

// TestOpFeedMatchesTrainScaleOps pins the calibration contract: with
// Config.TrainScaleOps, a run's op feed holds exactly the LUT keys of the
// recorded op list, each sampled once per occurrence, so measured wall
// times can be written into the table the NAS then reads.
func TestOpFeedMatchesTrainScaleOps(t *testing.T) {
	for _, backbone := range []string{"resnet18", "mobilenetv2"} {
		cfg := models.CIFARConfig(0.0625, 11)
		cfg.InputHW = 8
		cfg.NumClasses = 4
		cfg.TrainScaleOps = true
		m, err := models.ByName(backbone, cfg)
		if err != nil {
			t.Fatal(err)
		}
		feed := &obs.OpFeed{}
		if _, err := RunOpt(m, hwmodel.DefaultConfig(), tensor.New(2, 3, 8, 8), 5, RunOptions{OpFeed: feed}); err != nil {
			t.Fatalf("%s: %v", backbone, err)
		}
		// Culled activations compile to nothing, so identity ops are
		// never fed.
		want := map[string]int64{}
		for _, op := range m.Ops {
			if op.Kind != hwmodel.OpIdentity {
				want[op.Key()]++
			}
		}
		stats := feed.Stats()
		if len(stats) != len(want) {
			t.Fatalf("%s: feed has %d keys, op list has %d", backbone, len(stats), len(want))
		}
		for key, n := range want {
			st, ok := stats[key]
			if !ok {
				t.Fatalf("%s: op list key %q never fed", backbone, key)
			}
			if st.Samples != n {
				t.Fatalf("%s: key %q sampled %d times, op list has it %d times", backbone, key, st.Samples, n)
			}
			// Every sample covered the run's 2 rows.
			if st.Sec < 0 || math.Abs(st.Sec-2*st.RowSec*float64(st.Samples)) > 1e-9*(1+st.Sec) {
				t.Fatalf("%s: key %q sums %v s, want 2 rows × %d × %v s", backbone, key, st.Sec, st.Samples, st.RowSec)
			}
		}
	}
}
