package quantile

import (
	"testing"

	"repro/internal/randx"
)

// TestQuantileAddSteadyStateAllocs counts allocations over a run of
// 100 000 adds, not per add. A compaction is one Add in hundreds, so a
// per-call testing.AllocsPerRun (the root package's assertZeroAlloc)
// averages a slice made per compaction down to 0.83, truncates it to 0
// and passes: before the compactor worked in place it would have read 0
// for sketches that allocated 83 411 (KLL), 21 278 (REQ) and 195
// (t-digest) times in these 100 000 adds.
func TestQuantileAddSteadyStateAllocs(t *testing.T) {
	const warm, run = 2_000_000, 100_000
	rng := randx.New(3)
	vals := make([]float64, run)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	kll, req, td := NewKLL(200, 1), NewREQ(32, 1), NewTDigest(100)
	for name, add := range map[string]func(float64){"kll": kll.Add, "req": req.Add, "tdigest": td.Add} {
		for i := 0; i < warm; i++ {
			add(vals[i%run])
		}
		allocs := testing.AllocsPerRun(5, func() {
			for _, v := range vals {
				add(v)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per %d steady-state adds, want 0", name, allocs, run)
		}
	}
}
