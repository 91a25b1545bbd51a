package frequency

import (
	"fmt"
	"sort"

	"repro/internal/core"
)

// MisraGries is the deterministic frequent-items summary (Misra &
// Gries 1982), generalizing Boyer–Moore majority voting to k counters:
// maintain at most k (item, count) pairs; on overflow decrement all
// counters (conceptually cancelling k+1 distinct items against each
// other). Every estimate undercounts by at most N/(k+1), so all items
// with true frequency above N/(k+1) are retained — the heavy hitters
// guarantee of experiment E5. Merging follows Mergeable Summaries
// (PODS 2012): add counters, then subtract the (k+1)-st largest from
// all and discard non-positive ones.
type MisraGries struct {
	counters map[string]uint64
	k        int
	n        uint64
	decs     uint64 // total decrement offset (lower-bounds the undercount)
}

// NewMisraGries creates a summary with k counters; items with frequency
// above N/(k+1) are guaranteed to be tracked.
func NewMisraGries(k int) *MisraGries {
	if k < 1 {
		panic("frequency: MisraGries requires k >= 1")
	}
	return &MisraGries{counters: make(map[string]uint64, k+1), k: k}
}

// Add registers weight occurrences of item.
func (m *MisraGries) Add(item string, weight uint64) {
	m.n += weight
	if c, ok := m.counters[item]; ok {
		m.counters[item] = c + weight
		return
	}
	if len(m.counters) < m.k {
		m.counters[item] = weight
		return
	}
	// Decrement all counters by the smallest amount that frees a slot
	// (batch decrement: min(weight, current minimum counter)).
	min := weight
	for _, c := range m.counters {
		if c < min {
			min = c
		}
	}
	m.decs += min
	for it, c := range m.counters {
		if c <= min {
			delete(m.counters, it)
		} else {
			m.counters[it] = c - min
		}
	}
	if weight > min {
		m.counters[item] = weight - min
	}
}

// Update implements core.Updater.
func (m *MisraGries) Update(item []byte) { m.Add(string(item), 1) }

// Estimate returns the tracked count of item (0 if untracked). The true
// frequency lies in [Estimate, Estimate + N/(k+1)].
func (m *MisraGries) Estimate(item string) uint64 { return m.counters[item] }

// ErrorBound returns the maximum possible undercount N/(k+1).
func (m *MisraGries) ErrorBound() uint64 { return m.n / uint64(m.k+1) }

// N returns the total weight processed.
func (m *MisraGries) N() uint64 { return m.n }

// K returns the counter budget.
func (m *MisraGries) K() int { return m.k }

// Entry is a tracked item with its estimated count.
type Entry struct {
	Item  string
	Count uint64
}

// HeavyHitters returns tracked items whose estimated frequency could
// meet threshold·N, sorted by descending count. With threshold φ and
// error ε = 1/(k+1), the output contains every item with true frequency
// ≥ φN (no false negatives) and none below (φ−ε)N.
func (m *MisraGries) HeavyHitters(threshold float64) []Entry {
	cut := uint64(threshold * float64(m.n)) // compare lower bound + slack
	var out []Entry
	for it, c := range m.counters {
		if c+m.ErrorBound() >= cut && cut > 0 {
			out = append(out, Entry{Item: it, Count: c})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Item < out[j].Item
	})
	return out
}

// Entries returns all tracked items sorted by descending count.
func (m *MisraGries) Entries() []Entry {
	out := make([]Entry, 0, len(m.counters))
	for it, c := range m.counters {
		out = append(out, Entry{Item: it, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Item < out[j].Item
	})
	return out
}

// Merge combines another summary with the same k (Agarwal et al. 2013):
// sum counters, then reduce back to k entries by subtracting the
// (k+1)-st largest count.
func (m *MisraGries) Merge(other *MisraGries) error {
	if m.k != other.k {
		return fmt.Errorf("%w: misra-gries k=%d vs k=%d", core.ErrIncompatible, m.k, other.k)
	}
	for it, c := range other.counters {
		m.counters[it] += c
	}
	m.n += other.n
	m.decs += other.decs
	if len(m.counters) > m.k {
		counts := make([]uint64, 0, len(m.counters))
		for _, c := range m.counters {
			counts = append(counts, c)
		}
		sort.Slice(counts, func(i, j int) bool { return counts[i] > counts[j] })
		sub := counts[m.k] // (k+1)-st largest
		m.decs += sub
		for it, c := range m.counters {
			if c <= sub {
				delete(m.counters, it)
			} else {
				m.counters[it] = c - sub
			}
		}
	}
	return nil
}

// MarshalBinary serializes the summary.
func (m *MisraGries) MarshalBinary() ([]byte, error) {
	w := core.NewWriter(core.TagMisraGries, 1)
	w.U32(uint32(m.k))
	w.U64(m.n)
	w.U64(m.decs)
	entries := m.Entries()
	w.U32(uint32(len(entries)))
	for _, e := range entries {
		w.BytesField([]byte(e.Item))
		w.U64(e.Count)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary restores a summary serialized by MarshalBinary.
func (m *MisraGries) UnmarshalBinary(data []byte) error {
	r, _, err := core.NewReaderVersioned(data, core.TagMisraGries, 1)
	if err != nil {
		return err
	}
	k := int(r.U32())
	n := r.U64()
	decs := r.U64()
	cnt := r.Count(12) // len-prefixed item (≥4 bytes) + U64 count
	if r.Err() != nil {
		return r.Err()
	}
	if k < 1 || cnt > k {
		return fmt.Errorf("%w: misra-gries k=%d entries=%d", core.ErrCorrupt, k, cnt)
	}
	counters := make(map[string]uint64, cnt)
	for i := 0; i < cnt; i++ {
		item := string(r.BytesField())
		counters[item] = r.U64()
	}
	if err := r.Done(); err != nil {
		return err
	}
	m.k, m.n, m.decs, m.counters = k, n, decs, counters
	return nil
}
