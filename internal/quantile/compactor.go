package quantile

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/randx"
)

// compactor is the leveled kernel KLL and REQ share: level h holds items
// of weight 2^h, and a level that outgrows its capacity sorts itself and
// promotes every other item of a compactable prefix (random offset) to
// the level above — halving the count and doubling the weight. What a
// family adds is a policy: how large each level may grow and how much of
// its top end a compaction leaves alone.
type compactor struct {
	policy *policy
	k      int
	levels [][]float64
	n      uint64
	rng    *randx.RNG
	seed   uint64
	extent
}

// extent is the exact range of the values a sketch has been given.
type extent struct{ minV, maxV float64 }

func emptyExtent() extent { return extent{math.Inf(1), math.Inf(-1)} }

// cover widens e to include [lo, hi].
func (e *extent) cover(lo, hi float64) {
	if lo < e.minV {
		e.minV = lo
	}
	if hi > e.maxV {
		e.maxV = hi
	}
}

// Min returns the smallest inserted value.
func (e *extent) Min() float64 { return e.minV }

// Max returns the largest inserted value.
func (e *extent) Max() float64 { return e.maxV }

// policy is everything that tells one leveled sketch from another.
type policy struct {
	name string // in error messages
	minK int
	salt uint64 // xored into the seed of a decoded sketch's generator
	// capacity is the size past which a level compacts, in a hierarchy
	// of height levels.
	capacity func(k, level, height int) int
	// protected draws the length of the sorted suffix a compaction keeps
	// at its level; a policy that protects nothing draws nothing.
	protected func(k int, rng *randx.RNG) int
}

func newCompactor(p *policy, k int, seed uint64) compactor {
	if k < p.minK {
		panic(fmt.Sprintf("quantile: %s requires k >= %d", p.name, p.minK))
	}
	return compactor{
		policy: p,
		k:      k,
		levels: make([][]float64, 1),
		rng:    randx.New(seed),
		seed:   seed,
		extent: emptyExtent(),
	}
}

// Add inserts a value.
func (c *compactor) Add(v float64) {
	c.levels[0] = append(c.levels[0], v)
	c.n++
	c.cover(v, v)
	c.compact()
}

// compact promotes overfull levels upward, in place: survivors are
// appended straight to the level above and the protected suffix slides
// down to the front of its own buffer, so a sketch whose levels have
// reached their capacities adds without allocating.
func (c *compactor) compact() {
	for level := 0; level < len(c.levels); level++ {
		if len(c.levels[level]) <= c.policy.capacity(c.k, level, len(c.levels)) {
			continue
		}
		if level+1 == len(c.levels) {
			c.levels = append(c.levels, nil)
		}
		buf := c.levels[level]
		sort.Float64s(buf)
		protect := c.policy.protected(c.k, c.rng)
		if protect >= len(buf) {
			protect = len(buf) / 2
		}
		prefix := buf[:len(buf)-protect]
		if len(prefix) < 2 {
			// Nothing sensible to compact; grow the buffer instead.
			return
		}
		// Random offset: keep odd or even positions with equal
		// probability; survivors double their weight.
		offset := 0
		if c.rng.Bool() {
			offset = 1
		}
		up := c.levels[level+1]
		for i := offset; i < len(prefix); i += 2 {
			up = append(up, prefix[i])
		}
		c.levels[level+1] = up
		c.levels[level] = buf[:copy(buf, buf[len(prefix):])]
	}
}

// weighted pairs a retained value with the weight it stands for.
type weighted struct {
	v float64
	w uint64
}

// weightedQuantile sorts pairs by value and returns the first value at
// which the running weight reaches q·total; ok is false when none does
// (total larger than the weight present, or q not a number).
func weightedQuantile(pairs []weighted, q float64, total uint64) (v float64, ok bool) {
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].v < pairs[j].v })
	target := q * float64(total)
	var acc uint64
	for _, p := range pairs {
		acc += p.w
		if float64(acc) >= target {
			return p.v, true
		}
	}
	return 0, false
}

// quantile answers q as a fraction of total: the number of items added,
// or the weight retained — the two differ once compactions of odd-length
// prefixes have rounded.
func (c *compactor) quantile(q float64, total uint64) float64 {
	if c.n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return c.minV
	}
	if q >= 1 {
		return c.maxV
	}
	pairs := make([]weighted, 0, c.RetainedItems())
	for level, buf := range c.levels {
		for _, v := range buf {
			pairs = append(pairs, weighted{v, 1 << uint(level)})
		}
	}
	if v, ok := weightedQuantile(pairs, q, total); ok {
		return v
	}
	return c.maxV
}

// N returns the number of inserted values.
func (c *compactor) N() uint64 { return c.n }

// RetainedItems returns the number of stored values — the E6 space
// figure.
func (c *compactor) RetainedItems() int {
	total := 0
	for _, buf := range c.levels {
		total += len(buf)
	}
	return total
}

// SizeBytes returns the approximate memory footprint.
func (c *compactor) SizeBytes() int { return c.RetainedItems() * 8 }

// merge concatenates other's levels onto c's and re-compacts.
func (c *compactor) merge(other *compactor) error {
	if c.k != other.k {
		return fmt.Errorf("%w: %s k=%d vs k=%d", core.ErrIncompatible, c.policy.name, c.k, other.k)
	}
	if other.n == 0 {
		return nil // an empty peer is the identity: no compaction, no draw
	}
	for len(c.levels) < len(other.levels) {
		c.levels = append(c.levels, nil)
	}
	for level, buf := range other.levels {
		c.levels[level] = append(c.levels[level], buf...)
	}
	c.n += other.n
	c.cover(other.minV, other.maxV)
	c.compact()
	return nil
}

func (c *compactor) marshal(tag byte) ([]byte, error) {
	w := core.NewWriter(tag, 1)
	w.U32(uint32(c.k))
	w.U64(c.seed)
	w.U64(c.n)
	w.F64(c.minV)
	w.F64(c.maxV)
	w.U32(uint32(len(c.levels)))
	for _, buf := range c.levels {
		w.F64Slice(buf)
	}
	return w.Bytes(), nil
}

// unmarshal reads the payload behind an envelope header the family has
// already checked, and replaces c only once all of it has parsed.
func (c *compactor) unmarshal(r *core.Reader, p *policy) error {
	k := int(r.U32())
	seed := r.U64()
	n := r.U64()
	minV := r.F64()
	maxV := r.F64()
	numLevels := int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	if k < p.minK || numLevels < 1 || numLevels > 64 {
		return fmt.Errorf("%w: %s k=%d levels=%d", core.ErrCorrupt, p.name, k, numLevels)
	}
	levels := make([][]float64, numLevels)
	for i := range levels {
		levels[i] = r.F64Slice()
	}
	if err := r.Done(); err != nil {
		return err
	}
	*c = compactor{policy: p, k: k, levels: levels, n: n,
		rng: randx.New(seed ^ p.salt), seed: seed, extent: extent{minV, maxV}}
	return nil
}
