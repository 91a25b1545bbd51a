package cardinality

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/core"
	"repro/internal/hashx"
)

// LogLog is the Durand–Flajolet LogLog counter (2003): m registers each
// holding the maximum leading-rank seen in its substream; the estimate
// is α_m · m · 2^(mean register). It reduced the per-register cost from
// the FM bitmap's O(log n) bits to O(log log n) bits. Standard error
// ≈ 1.30/√m — HyperLogLog later improved the constant to 1.04 by
// replacing the geometric mean with a harmonic mean.
type LogLog struct {
	registers []uint8
	p         uint8 // log2(m)
	seed      uint64
}

// NewLogLog creates a LogLog sketch with 2^p registers, 4 ≤ p ≤ 16.
func NewLogLog(p uint8, seed uint64) *LogLog {
	if p < 4 || p > 16 {
		panic("cardinality: LogLog precision must be in [4,16]")
	}
	return &LogLog{registers: make([]uint8, 1<<p), p: p, seed: seed}
}

// Add inserts an item.
func (l *LogLog) Add(item []byte) { l.addHash(hashx.XXHash64(item, l.seed)) }

// AddUint64 inserts an integer item without allocation.
func (l *LogLog) AddUint64(v uint64) { l.addHash(hashx.HashUint64(v, l.seed)) }

// Update implements core.Updater.
func (l *LogLog) Update(item []byte) { l.Add(item) }

func (l *LogLog) addHash(h uint64) {
	idx := h >> (64 - l.p)
	w := h<<l.p | 1<<(l.p-1) // pad so rank is well-defined on the remaining bits
	rank := uint8(bits.LeadingZeros64(w)) + 1
	if rank > l.registers[idx] {
		l.registers[idx] = rank
	}
}

// alphaLogLog is the Durand–Flajolet bias-correction constant
// α_m ≈ 0.39701 for large m (the m-dependence is negligible at m ≥ 16).
const alphaLogLog = 0.39701

// Estimate returns the cardinality estimate α_m · m · 2^(ΣM/m).
func (l *LogLog) Estimate() float64 {
	m := float64(len(l.registers))
	var sum float64
	for _, r := range l.registers {
		sum += float64(r)
	}
	return alphaLogLog * m * math.Pow(2, sum/m)
}

// StandardError returns the theoretical relative standard error 1.30/√m.
func (l *LogLog) StandardError() float64 {
	return 1.30 / math.Sqrt(float64(len(l.registers)))
}

// M returns the register count.
func (l *LogLog) M() int { return len(l.registers) }

// SizeBytes returns the register storage size (5-bit registers packed
// would be ⌈5m/8⌉; we store bytes and report the honest in-memory cost).
func (l *LogLog) SizeBytes() int { return len(l.registers) }

// Merge takes the register-wise maximum, the exact union sketch.
func (l *LogLog) Merge(other *LogLog) error {
	if l.p != other.p || l.seed != other.seed {
		return fmt.Errorf("%w: LogLog shape mismatch", core.ErrIncompatible)
	}
	for i, r := range other.registers {
		if r > l.registers[i] {
			l.registers[i] = r
		}
	}
	return nil
}

// MarshalBinary serializes the sketch.
func (l *LogLog) MarshalBinary() ([]byte, error) {
	w := core.NewWriter(core.TagLogLog, 1)
	w.U8(l.p)
	w.U64(l.seed)
	w.BytesField(l.registers)
	return w.Bytes(), nil
}

// UnmarshalBinary restores a sketch serialized by MarshalBinary.
func (l *LogLog) UnmarshalBinary(data []byte) error {
	r, _, err := core.NewReaderVersioned(data, core.TagLogLog, 1)
	if err != nil {
		return err
	}
	p := r.U8()
	seed := r.U64()
	regs := r.BytesField()
	if err := r.Done(); err != nil {
		return err
	}
	if p < 4 || p > 16 || len(regs) != 1<<p {
		return fmt.Errorf("%w: LogLog precision %d with %d registers", core.ErrCorrupt, p, len(regs))
	}
	l.p, l.seed, l.registers = p, seed, regs
	return nil
}
