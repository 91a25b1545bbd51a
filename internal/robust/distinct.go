package robust

import (
	"fmt"
	"math"

	"repro/internal/cardinality"
	"repro/internal/core"
	"repro/internal/hashx"
)

// Distinct is an adversarially robust distinct counter and the wire
// format behind the "robustdistinct" registry family: the
// sketch-switching construction applied to HyperLogLog, optionally
// composed with the other two defenses in this package — Bernoulli-q
// subsampled ingest in front of the copies and (1+ρ)-grid noisy
// release behind them. An adaptive adversary that observes HLL
// estimates can hunt for items that leave the registers unchanged
// (their hashes land under existing maxima) and inflate the true
// cardinality far beyond the reported one; the fresh-copy discipline
// bounds how much any copy's randomness can be exploited, and the
// optional wrappers corrupt the per-item delta signal the hunt needs.
// Insertion-only F0 is monotone, so λ = O(log_{1+ε} n) copies cover a
// stream of n distinct items.
type Distinct struct {
	copies []*cardinality.HLL
	cur    int
	last   float64
	eps    float64
	burned bool

	p    uint8
	seed uint64
	rho  float64 // noisy-release grid; 0 = exact release
	q    float64 // Bernoulli ingest-admission rate; 1 = admit everything
}

// NewDefendedDistinct creates the full defense stack: Bernoulli-q
// subsampled ingest (q = 1 disables) into lambda switching HLL copies
// with (1+rho)-grid noisy release (rho = 0 disables).
func NewDefendedDistinct(eps float64, lambda int, p uint8, seed uint64, rho, q float64) *Distinct {
	if !(eps > 0 && eps < 1) {
		panic("robust: eps must be in (0,1)")
	}
	if lambda < 1 {
		panic("robust: lambda must be >= 1")
	}
	if !(rho >= 0 && rho < 1) {
		panic("robust: rho must be in [0,1)")
	}
	if !(q > 0 && q <= 1) {
		panic("robust: q must be in (0,1]")
	}
	copies := make([]*cardinality.HLL, lambda)
	for i := range copies {
		copies[i] = cardinality.NewHLL(p, copySeed(seed, i))
	}
	return &Distinct{
		copies: copies, eps: eps, last: math.NaN(),
		p: p, seed: seed, rho: rho, q: q,
	}
}

// admitted applies the Bernoulli ingest sample for byte items.
func (d *Distinct) admitted(item []byte) bool {
	return d.q >= 1 || hashx.XXHash64(item, admitSeed(d.seed)) <= admitThreshold(d.q)
}

// Add inserts an item into every copy (subject to the ingest sample).
func (d *Distinct) Add(item []byte) {
	if !d.admitted(item) {
		return
	}
	for _, c := range d.copies {
		c.Add(item)
	}
}

// AddUint64 inserts an integer item into every copy.
func (d *Distinct) AddUint64(v uint64) {
	if d.q < 1 && hashx.HashUint64(v, admitSeed(d.seed)) > admitThreshold(d.q) {
		return
	}
	for _, c := range d.copies {
		c.AddUint64(v)
	}
}

// Estimate returns the robust cardinality estimate with (1+ε)-quantized
// output changes, rescaled for the ingest sample and rounded onto the
// secret release grid when those defenses are enabled.
func (d *Distinct) Estimate() float64 { return d.release(d.switched()) }

// switched advances the sketch-switching state machine and returns the
// current frozen answer in the (possibly subsampled) inner domain.
func (d *Distinct) switched() float64 {
	if math.IsNaN(d.last) {
		d.last = d.copies[d.cur].Estimate()
		return d.last
	}
	cur := d.copies[d.cur].Estimate()
	if cur >= d.last/(1+d.eps) && cur <= d.last*(1+d.eps) {
		return d.last
	}
	if d.cur+1 == len(d.copies) {
		d.burned = true
		return d.last
	}
	d.cur++
	d.last = d.copies[d.cur].Estimate()
	return d.last
}

// release maps the inner answer to the published estimate.
func (d *Distinct) release(v float64) float64 {
	v /= d.q
	if d.rho > 0 {
		v = noisyRound(v, d.rho, noisePhase(d.seed))
	}
	return v
}

// Exhausted reports whether all copies have been exposed.
func (d *Distinct) Exhausted() bool { return d.burned }

// Copies returns λ.
func (d *Distinct) Copies() int { return len(d.copies) }

// CopiesUsed returns how many copies have been exposed so far.
func (d *Distinct) CopiesUsed() int { return d.cur + 1 }

// Eps returns the switching threshold.
func (d *Distinct) Eps() float64 { return d.eps }

// SizeBytes returns the total memory across copies.
func (d *Distinct) SizeBytes() int {
	total := 0
	for _, c := range d.copies {
		total += c.SizeBytes()
	}
	return total
}

// robustDistinctVersion is the serialization version written by
// MarshalBinary.
const robustDistinctVersion = 1

// MarshalBinary serializes the full defense stack in the standard
// envelope: parameters, the switching state machine, and every copy's
// own envelope. The encoding is deterministic, so crash recovery's
// byte-identity check holds.
func (d *Distinct) MarshalBinary() ([]byte, error) {
	w := core.NewWriter(core.TagRobustDistinct, robustDistinctVersion)
	w.U8(d.p)
	w.U64(d.seed)
	w.F64(d.eps)
	w.F64(d.rho)
	w.F64(d.q)
	w.U32(uint32(len(d.copies)))
	w.U32(uint32(d.cur))
	if d.burned {
		w.U8(1)
	} else {
		w.U8(0)
	}
	w.F64(d.last)
	for _, c := range d.copies {
		env, err := c.MarshalBinary()
		if err != nil {
			return nil, err
		}
		w.BytesField(env)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary decodes a serialized robust distinct counter,
// validating the envelope and every parameter so corrupt bytes fail
// fast instead of building an inconsistent defense.
func (d *Distinct) UnmarshalBinary(data []byte) error {
	r, _, err := core.NewReaderVersioned(data, core.TagRobustDistinct, robustDistinctVersion)
	if err != nil {
		return err
	}
	p := r.U8()
	seed := r.U64()
	eps := r.F64()
	rho := r.F64()
	q := r.F64()
	lambda := int(r.U32())
	cur := int(r.U32())
	burned := r.U8() != 0
	last := r.F64()
	if err := r.Err(); err != nil {
		return err
	}
	if !(eps > 0 && eps < 1) || !(rho >= 0 && rho < 1) || !(q > 0 && q <= 1) {
		return fmt.Errorf("%w: robustdistinct parameters out of range", core.ErrCorrupt)
	}
	if p < 4 || p > 18 {
		return fmt.Errorf("%w: robustdistinct precision %d", core.ErrCorrupt, p)
	}
	// Each copy costs at least a 4-byte length prefix plus a 6-byte
	// envelope header on the wire, so an implausible λ is caught before
	// the copy loop allocates. The absolute cap matches the registry
	// descriptor's lambda bound.
	if lambda < 1 || lambda > 1024 || lambda*10 > len(data) {
		return fmt.Errorf("%w: robustdistinct copy count %d", core.ErrCorrupt, lambda)
	}
	if cur < 0 || cur >= lambda {
		return fmt.Errorf("%w: robustdistinct current copy %d of %d", core.ErrCorrupt, cur, lambda)
	}
	copies := make([]*cardinality.HLL, lambda)
	for i := range copies {
		env := r.BytesField()
		if err := r.Err(); err != nil {
			return err
		}
		c := new(cardinality.HLL)
		if err := c.UnmarshalBinary(env); err != nil {
			return fmt.Errorf("robustdistinct copy %d: %w", i, err)
		}
		copies[i] = c
	}
	if err := r.Done(); err != nil {
		return err
	}
	d.copies = copies
	d.cur = cur
	d.last = last
	d.eps = eps
	d.burned = burned
	d.p = p
	d.seed = seed
	d.rho = rho
	d.q = q
	return nil
}

// Merge absorbs a peer with identical parameters: copies merge
// pairwise (same derived seeds, so the union is exact per copy) and
// the switching state adopts whichever side has revealed more copies —
// the conservative choice, since a revealed copy is burned on either
// side of the merge. Distributed aggregation therefore never
// resurrects randomness an adversary has already seen.
func (d *Distinct) Merge(other *Distinct) error {
	if other == nil {
		return fmt.Errorf("%w: nil robustdistinct", core.ErrIncompatible)
	}
	if d.p != other.p || d.seed != other.seed || len(d.copies) != len(other.copies) ||
		d.eps != other.eps || d.rho != other.rho || d.q != other.q {
		return fmt.Errorf("%w: robustdistinct shapes differ (p=%d/%d seed=%d/%d lambda=%d/%d eps=%g/%g rho=%g/%g q=%g/%g)",
			core.ErrIncompatible, d.p, other.p, d.seed, other.seed, len(d.copies), len(other.copies),
			d.eps, other.eps, d.rho, other.rho, d.q, other.q)
	}
	for i, c := range d.copies {
		if err := c.Merge(other.copies[i]); err != nil {
			return err
		}
	}
	switch {
	case other.cur > d.cur:
		d.cur = other.cur
		d.last = other.last
	case other.cur == d.cur && math.IsNaN(d.last):
		d.last = other.last
	}
	d.burned = d.burned || other.burned
	return nil
}
