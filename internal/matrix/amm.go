package matrix

import (
	"fmt"

	"repro/internal/hashx"
)

// AMM performs approximate matrix multiplication via a shared
// Count-Sketch projection: AᵀB ≈ (SA)ᵀ(SB) where S is a k×n
// Count-Sketch matrix. E[(SA)ᵀ(SB)] = AᵀB exactly, with Frobenius
// error O(‖A‖_F·‖B‖_F/√k) — the cheapest of the cited numerical-
// linear-algebra applications. Rows of A and B stream in together.
type AMM struct {
	k      int
	n      int // rows expected (the shared inner dimension)
	bucket *hashx.KWise
	sign   *hashx.KWise
	sa     [][]float64 // k × dA
	sb     [][]float64 // k × dB
	dA, dB int
	row    int
}

// NewAMM creates an approximate multiplier computing AᵀB for matrices
// with the given column counts, compressing the shared n-row dimension
// to k.
func NewAMM(k, dA, dB int, seed uint64) *AMM {
	if k < 1 || dA < 1 || dB < 1 {
		panic("matrix: AMM dimensions must be positive")
	}
	seeds := hashx.SeedSequence(seed, 2)
	sa := make([][]float64, k)
	sb := make([][]float64, k)
	for i := range sa {
		sa[i] = make([]float64, dA)
		sb[i] = make([]float64, dB)
	}
	return &AMM{
		k: k, bucket: hashx.NewKWise(2, seeds[0]), sign: hashx.NewKWise(4, seeds[1]),
		sa: sa, sb: sb, dA: dA, dB: dB,
	}
}

// Append streams one aligned row pair (aᵢ of A and bᵢ of B).
func (m *AMM) Append(aRow, bRow []float64) {
	if len(aRow) != m.dA || len(bRow) != m.dB {
		panic(fmt.Sprintf("matrix: row dims (%d,%d), want (%d,%d)", len(aRow), len(bRow), m.dA, m.dB))
	}
	i := uint64(m.row)
	m.row++
	pos := m.bucket.HashRange(i, m.k)
	s := float64(m.sign.Sign(i))
	for c, v := range aRow {
		m.sa[pos][c] += s * v
	}
	for c, v := range bRow {
		m.sb[pos][c] += s * v
	}
}

// Product returns the k-compressed estimate of AᵀB (dA×dB).
func (m *AMM) Product() [][]float64 {
	out := make([][]float64, m.dA)
	for i := range out {
		out[i] = make([]float64, m.dB)
	}
	for r := 0; r < m.k; r++ {
		for i := 0; i < m.dA; i++ {
			av := m.sa[r][i]
			if av == 0 {
				continue
			}
			for j := 0; j < m.dB; j++ {
				out[i][j] += av * m.sb[r][j]
			}
		}
	}
	return out
}
