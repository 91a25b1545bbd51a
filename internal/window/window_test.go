package window

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/randx"
)

// exactWindow tracks true per-tick counts for scoring.
type exactWindow struct {
	window uint64
	events map[uint64]uint64
	now    uint64
}

func newExactWindow(w uint64) *exactWindow {
	return &exactWindow{window: w, events: map[uint64]uint64{}}
}

func (e *exactWindow) tick(ts uint64) { e.now = ts }
func (e *exactWindow) add(n uint64)   { e.events[e.now] += n }
func (e *exactWindow) count() (c uint64) {
	for ts, n := range e.events {
		if ts+e.window > e.now {
			c += n
		}
	}
	return c
}

func TestEHRelativeErrorBound(t *testing.T) {
	const window = 1000
	const k = 16
	h := NewEH(window, k)
	exact := newExactWindow(window)
	rng := randx.New(1)
	for ts := uint64(1); ts <= 20000; ts++ {
		h.Tick(ts)
		exact.tick(ts)
		if rng.BoolP(0.7) {
			n := uint64(rng.Intn(3) + 1)
			h.AddN(n)
			exact.add(n)
		}
		if ts%97 == 0 {
			want := float64(exact.count())
			got := h.Count()
			if want > 0 && core.RelErr(got, want) > 2.0/k {
				t.Fatalf("ts=%d: EH count %.0f vs true %.0f (relerr %.3f > %.3f)",
					ts, got, want, core.RelErr(got, want), 2.0/k)
			}
		}
	}
}

func TestEHBoundsContainTruth(t *testing.T) {
	const window = 500
	h := NewEH(window, 8)
	exact := newExactWindow(window)
	rng := randx.New(2)
	for ts := uint64(1); ts <= 5000; ts++ {
		h.Tick(ts)
		exact.tick(ts)
		if rng.BoolP(0.5) {
			h.Add()
			exact.add(1)
		}
		if ts%53 == 0 {
			lo, hi := ehBounds(h)
			want := exact.count()
			if want < lo || want > hi {
				t.Fatalf("ts=%d: true %d outside bounds [%d,%d]", ts, want, lo, hi)
			}
		}
	}
}

func TestEHSpaceLogarithmic(t *testing.T) {
	const window = 100000
	const k = 8
	h := NewEH(window, k)
	for ts := uint64(1); ts <= 200000; ts++ {
		h.Tick(ts)
		h.Add()
	}
	if h.BucketCount() > theoreticalEHBuckets(k, window) {
		t.Errorf("EH holds %d buckets, bound %d", h.BucketCount(), theoreticalEHBuckets(k, window))
	}
}

// ehBounds is the exact range the true window count lies in: every
// stored bucket but the oldest is wholly inside the window, and the
// oldest has at least its newest event inside.
func ehBounds(h *EH) (lo, hi uint64) {
	h.expire()
	if len(h.buckets) == 0 {
		return 0, 0
	}
	return h.total - h.buckets[0].count + 1, h.total
}

func TestEHFullExpiry(t *testing.T) {
	h := NewEH(100, 4)
	h.Tick(1)
	h.AddN(50)
	h.Tick(500)
	if got := h.Count(); got != 0 {
		t.Errorf("count after full expiry = %v", got)
	}
	lo, hi := ehBounds(h)
	if lo != 0 || hi != 0 {
		t.Errorf("bounds after expiry = [%d,%d]", lo, hi)
	}
}

func TestEHMonotonicClock(t *testing.T) {
	h := NewEH(10, 4)
	h.Tick(5)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards tick must panic")
		}
	}()
	h.Tick(3)
}

func TestEHPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"window": func() { NewEH(0, 4) },
		"k":      func() { NewEH(10, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestWindowedHLLTracksRecentDistinct(t *testing.T) {
	const window = 1000
	w := NewWindowedHLL(window, 10, 12, 3)
	// Phase 1: items 0..4999 during ticks 1..5000.
	for ts := uint64(1); ts <= 5000; ts++ {
		w.Tick(ts)
		w.AddUint64(ts - 1)
	}
	// Only the last ~window items should remain.
	est := w.Estimate()
	if core.RelErr(est, window) > 0.25 {
		t.Errorf("windowed estimate %.0f, want ~%d", est, window)
	}
	// Phase 2: silence; the window drains to zero.
	w.Tick(10000)
	if got := w.Estimate(); got != 0 {
		t.Errorf("estimate after silence = %.0f, want 0", got)
	}
	if len(w.panes) != 0 {
		t.Errorf("panes not expired: %d", len(w.panes))
	}
}

func TestWindowedHLLRepeatsWithinWindow(t *testing.T) {
	w := NewWindowedHLL(100, 4, 12, 4)
	for ts := uint64(1); ts <= 90; ts++ {
		w.Tick(ts)
		w.AddUint64(ts % 7) // only 7 distinct values
	}
	if est := w.Estimate(); core.RelErr(est, 7) > 0.2 {
		t.Errorf("estimate %.0f, want ~7", est)
	}
}

func TestWindowedHLLByteItems(t *testing.T) {
	w := NewWindowedHLL(10, 2, 10, 5)
	w.Tick(1)
	w.Add([]byte("a"))
	w.Add([]byte("b"))
	w.Add([]byte("a"))
	if est := w.Estimate(); est < 1.5 || est > 2.5 {
		t.Errorf("estimate %.1f, want ~2", est)
	}
	if w.SizeBytes() == 0 {
		t.Error("no sketch memory reported")
	}
}

func TestWindowedHLLPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWindowedHLL(10, 20, 10, 1) // panes > window
}

func BenchmarkEHAdd(b *testing.B) {
	h := NewEH(100000, 16)
	for i := 0; i < b.N; i++ {
		h.Tick(uint64(i + 1))
		h.Add()
	}
}

func BenchmarkWindowedHLLAdd(b *testing.B) {
	w := NewWindowedHLL(100000, 10, 14, 1)
	for i := 0; i < b.N; i++ {
		w.Tick(uint64(i + 1))
		w.AddUint64(uint64(i))
	}
}

// theoreticalEHBuckets is the EH space bound O(k log W).
func theoreticalEHBuckets(k int, window uint64) int {
	return (k/2 + 1) * (int(math.Log2(float64(window))) + 2)
}
