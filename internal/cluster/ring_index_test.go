package cluster

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/randx"
)

// locateBinary is the definition of placement the prefix index is held
// to: the first point at or clockwise of h by binary search over the
// sorted points, wrapping past the last to the first.
func locateBinary(r *Ring, h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return int(r.points[i].shard)
}

func TestRingIndexMatchesBinarySearch(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4, 16} {
		for _, vnodes := range []int{1, 7, 128} {
			ids := make([]string, shards)
			for i := range ids {
				ids[i] = fmt.Sprintf("http://shard-%d:7600", i)
			}
			r, err := NewRing(ids, vnodes)
			if err != nil {
				t.Fatal(err)
			}
			check := func(h uint64) {
				t.Helper()
				if got, want := r.locate(h), locateBinary(r, h); got != want {
					t.Fatalf("%d shards x %d vnodes: locate(%#x) = %d, binary search says %d", shards, vnodes, h, got, want)
				}
			}
			check(0)
			check(^uint64(0))
			for _, p := range r.points { // on a point, just before it, just past it
				check(p.hash)
				check(p.hash - 1)
				check(p.hash + 1)
			}
			last := r.points[len(r.points)-1].hash
			if got := r.locate(last + 1); last != ^uint64(0) && got != int(r.points[0].shard) {
				t.Fatalf("%d shards x %d vnodes: a hash past the last point routes to %d, not the first point's shard", shards, vnodes, got)
			}
			for b := uint64(0); b < 1<<indexBits; b++ { // both ends of every index bucket
				check(b << (64 - indexBits))
				check(b<<(64-indexBits) | (1<<(64-indexBits) - 1))
			}
			rng := randx.New(uint64(shards)<<8 | uint64(vnodes))
			for i := 0; i < 100_000; i++ {
				check(rng.Uint64())
			}
		}
	}
}
