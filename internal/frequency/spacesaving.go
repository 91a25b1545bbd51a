package frequency

import (
	"container/heap"
	"fmt"
	"sort"

	"repro/internal/core"
)

// SpaceSaving is the Metwally–Agrawal–El Abbadi frequent-items summary
// (2005): maintain k counters; a new item evicts the current minimum
// counter and inherits its count plus one, recording that inherited
// count as the estimate's maximum overcount. Estimates never
// undercount by more than zero and overcount by at most N/k; the paper
// later notes SpaceSaving was shown to be isomorphic to Misra–Gries —
// experiment E5 confirms their recall/precision match. The counter set
// is kept in a min-heap for O(log k) updates.
type SpaceSaving struct {
	k     int
	n     uint64
	items map[string]*ssEntry
	heap  ssHeap
}

type ssEntry struct {
	item  string
	count uint64
	err   uint64 // maximum overcount inherited at insertion
	index int
}

type ssHeap []*ssEntry

func (h ssHeap) Len() int           { return len(h) }
func (h ssHeap) Less(i, j int) bool { return h[i].count < h[j].count }
func (h ssHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *ssHeap) Push(x any)        { e := x.(*ssEntry); e.index = len(*h); *h = append(*h, e) }
func (h *ssHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// NewSpaceSaving creates a summary with k counters; items with true
// frequency above N/k are guaranteed to be present.
func NewSpaceSaving(k int) *SpaceSaving {
	if k < 1 {
		panic("frequency: SpaceSaving requires k >= 1")
	}
	return &SpaceSaving{k: k, items: make(map[string]*ssEntry, k)}
}

// Add registers weight occurrences of item.
func (s *SpaceSaving) Add(item string, weight uint64) {
	s.n += weight
	if e, ok := s.items[item]; ok {
		e.count += weight
		heap.Fix(&s.heap, e.index)
		return
	}
	if len(s.heap) < s.k {
		e := &ssEntry{item: item, count: weight}
		heap.Push(&s.heap, e)
		s.items[item] = e
		return
	}
	// Evict the minimum: the newcomer inherits its count as error.
	min := s.heap[0]
	delete(s.items, min.item)
	inherited := min.count
	min.item = item
	min.count = inherited + weight
	min.err = inherited
	heap.Fix(&s.heap, 0)
	s.items[item] = min
}

// Update implements core.Updater.
func (s *SpaceSaving) Update(item []byte) { s.Add(string(item), 1) }

// Estimate returns the tracked count (an overestimate by at most the
// recorded error), or 0 for untracked items.
func (s *SpaceSaving) Estimate(item string) uint64 {
	if e, ok := s.items[item]; ok {
		return e.count
	}
	return 0
}

// GuaranteedCount returns the provable lower bound count − err for a
// tracked item.
func (s *SpaceSaving) GuaranteedCount(item string) uint64 {
	if e, ok := s.items[item]; ok {
		return e.count - e.err
	}
	return 0
}

// N returns the total weight processed.
func (s *SpaceSaving) N() uint64 { return s.n }

// K returns the counter budget.
func (s *SpaceSaving) K() int { return s.k }

// ErrorBound returns the maximum overcount N/k.
func (s *SpaceSaving) ErrorBound() uint64 { return s.n / uint64(s.k) }

// HeavyHitters returns items whose estimate reaches threshold·N,
// sorted by descending estimate. Contains every item with true
// frequency ≥ threshold·N.
func (s *SpaceSaving) HeavyHitters(threshold float64) []Entry {
	cut := uint64(threshold * float64(s.n))
	var out []Entry
	for _, e := range s.heap {
		if e.count >= cut && cut > 0 {
			out = append(out, Entry{Item: e.item, Count: e.count})
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

// Entries returns all tracked items sorted by descending estimate.
func (s *SpaceSaving) Entries() []Entry {
	out := make([]Entry, 0, len(s.heap))
	for _, e := range s.heap {
		out = append(out, Entry{Item: e.item, Count: e.count})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Item < out[j].Item
	})
	return out
}

// Merge combines another SpaceSaving summary with the same k: counts
// (and error bounds) of shared items add; the union is then pruned back
// to the k largest counters. The merged error bounds remain valid
// (Agarwal et al. 2013).
func (s *SpaceSaving) Merge(other *SpaceSaving) error {
	if s.k != other.k {
		return fmt.Errorf("%w: space-saving k=%d vs k=%d", core.ErrIncompatible, s.k, other.k)
	}
	if other.n == 0 {
		return nil // an empty peer is the identity: the heap keeps its order
	}
	type pair struct{ count, err uint64 }
	merged := make(map[string]pair, len(s.heap)+len(other.heap))
	for _, e := range s.heap {
		merged[e.item] = pair{e.count, e.err}
	}
	// Items absent from one summary could still have occurred up to
	// that summary's minimum count; absorb that into the error bound.
	var minS, minO uint64
	if len(s.heap) == s.k {
		minS = s.heap[0].count
	}
	if len(other.heap) == other.k {
		minO = other.heap[0].count
	}
	for _, e := range other.heap {
		if p, ok := merged[e.item]; ok {
			merged[e.item] = pair{p.count + e.count, p.err + e.err}
		} else {
			merged[e.item] = pair{e.count + minS, e.err + minS}
		}
	}
	for _, e := range s.heap {
		if _, ok := other.items[e.item]; !ok {
			p := merged[e.item]
			merged[e.item] = pair{p.count + minO, p.err + minO}
		}
	}
	// Keep the k largest.
	type rec struct {
		item string
		pair
	}
	all := make([]rec, 0, len(merged))
	for it, p := range merged {
		all = append(all, rec{it, p})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].item < all[j].item
	})
	if len(all) > s.k {
		all = all[:s.k]
	}
	s.items = make(map[string]*ssEntry, len(all)) // not k: a decoded capacity is not a size to reserve
	s.heap = s.heap[:0]
	for _, r := range all {
		e := &ssEntry{item: r.item, count: r.count, err: r.err}
		heap.Push(&s.heap, e)
		s.items[r.item] = e
	}
	s.n += other.n
	return nil
}

// MarshalBinary serializes the summary.
func (s *SpaceSaving) MarshalBinary() ([]byte, error) {
	w := core.NewWriter(core.TagSpaceSaving, 1)
	w.U32(uint32(s.k))
	w.U64(s.n)
	w.U32(uint32(len(s.heap)))
	for _, e := range s.heap {
		w.BytesField([]byte(e.item))
		w.U64(e.count)
		w.U64(e.err)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary restores a summary serialized by MarshalBinary.
func (s *SpaceSaving) UnmarshalBinary(data []byte) error {
	r, _, err := core.NewReaderVersioned(data, core.TagSpaceSaving, 1)
	if err != nil {
		return err
	}
	k := int(r.U32())
	n := r.U64()
	cnt := r.Count(20) // len-prefixed item (≥4 bytes) + 2 × U64
	if r.Err() != nil {
		return r.Err()
	}
	if k < 1 || cnt > k {
		return fmt.Errorf("%w: space-saving k=%d entries=%d", core.ErrCorrupt, k, cnt)
	}
	// Size the map by the serialized entry count, not by k: k is an
	// untrusted capacity that only bounds future growth.
	fresh := &SpaceSaving{k: k, items: make(map[string]*ssEntry, cnt)}
	fresh.n = n
	for i := 0; i < cnt; i++ {
		item := string(r.BytesField())
		count := r.U64()
		errv := r.U64()
		e := &ssEntry{item: item, count: count, err: errv}
		heap.Push(&fresh.heap, e)
		fresh.items[item] = e
	}
	if err := r.Done(); err != nil {
		return err
	}
	*s = *fresh
	return nil
}
