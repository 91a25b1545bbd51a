// Package matrix implements the numerical-linear-algebra applications
// of sketching the paper cites (Woodruff's "Sketching as a Tool for
// Numerical Linear Algebra", cite [48]): the Frequent Directions
// matrix sketch of Liberty — the matrix analogue of Misra–Gries — and
// Count-Sketch-based approximate matrix multiplication.
//
// Frequent Directions maintains an ℓ×d sketch B of a stream of rows
// a₁, a₂, … of an n×d matrix A with the deterministic guarantee
// ‖AᵀA − BᵀB‖₂ ≤ 2‖A‖_F²/ℓ, using a singular-value shrink step on
// overflow (implemented via Jacobi eigendecomposition of B·Bᵀ, which
// is only ℓ×ℓ). Experiment E19 sweeps ℓ and verifies the bound.
package matrix

import (
	"fmt"
	"math"
)

// FD is a Frequent Directions sketch of ℓ rows over d columns. The
// buffer holds 2ℓ rows; when full, it is halved by the shrink step.
type FD struct {
	l, d  int
	rows  [][]float64 // up to 2l live rows
	frob2 float64     // running ||A||_F^2 for the error bound
	n     int         // rows appended
}

// NewFD creates a Frequent Directions sketch with ℓ retained
// directions over d columns.
func NewFD(l, d int, _ uint64) *FD {
	if l < 1 || d < 1 {
		panic("matrix: FD requires positive l and d")
	}
	return &FD{l: l, d: d}
}

// Append folds one row of A into the sketch.
func (f *FD) Append(row []float64) {
	if len(row) != f.d {
		panic(fmt.Sprintf("matrix: row dimension %d, want %d", len(row), f.d))
	}
	cp := append([]float64(nil), row...)
	f.rows = append(f.rows, cp)
	for _, v := range row {
		f.frob2 += v * v
	}
	f.n++
	if len(f.rows) >= 2*f.l {
		f.shrink()
	}
}

// shrink performs the FD step: compute the SVD of the buffer B (via
// the ℓ′×ℓ′ eigendecomposition of B·Bᵀ), subtract σ_ℓ² from every
// squared singular value, and rebuild at most ℓ−1 non-zero rows.
func (f *FD) shrink() {
	m := len(f.rows)
	// G = B·Bᵀ (m×m, m = 2l, small).
	g := make([][]float64, m)
	for i := range g {
		g[i] = make([]float64, m)
		for j := 0; j <= i; j++ {
			var s float64
			for c := 0; c < f.d; c++ {
				s += f.rows[i][c] * f.rows[j][c]
			}
			g[i][j] = s
		}
	}
	for i := range g {
		for j := i + 1; j < m; j++ {
			g[i][j] = g[j][i]
		}
	}
	eigVals, eigVecs := jacobiEigen(g)
	// eigVals descending; eigVals[i] = σᵢ². Shrink by σ_l² (the l-th
	// largest, index l-1; if fewer positive values, nothing survives
	// past them anyway).
	shrinkBy := 0.0
	if f.l-1 < len(eigVals) {
		shrinkBy = math.Max(eigVals[f.l-1], 0)
	}
	// New rows: for each retained direction i,
	// b'_i = sqrt(max(σᵢ²−σ_l², 0)) · vᵢ, where vᵢ = (1/σᵢ)·uᵢᵀB is the
	// right singular vector.
	var newRows [][]float64
	for i := 0; i < f.l-1 && i < len(eigVals); i++ {
		lam := eigVals[i]
		if lam <= shrinkBy || lam <= 1e-12 {
			break
		}
		sigma := math.Sqrt(lam)
		scale := math.Sqrt(lam-shrinkBy) / sigma
		// row = scale · uᵢᵀ B
		row := make([]float64, f.d)
		for r := 0; r < m; r++ {
			u := eigVecs[r][i]
			if u == 0 {
				continue
			}
			for c := 0; c < f.d; c++ {
				row[c] += u * f.rows[r][c]
			}
		}
		for c := range row {
			row[c] *= scale
		}
		newRows = append(newRows, row)
	}
	f.rows = newRows
}

// Sketch returns the current sketch rows (forcing a shrink if the
// buffer exceeds ℓ so callers see at most ℓ rows).
func (f *FD) Sketch() [][]float64 {
	if len(f.rows) > f.l {
		f.shrink()
	}
	return f.rows
}

// CovarianceErrorBound returns the deterministic FD guarantee
// 2·‖A‖_F²/ℓ on ‖AᵀA − BᵀB‖₂.
func (f *FD) CovarianceErrorBound() float64 { return 2 * f.frob2 / float64(f.l) }

// CovarianceDiff computes ‖AᵀA − BᵀB‖₂ against an explicitly provided
// A (test/experiment helper) via power iteration on the difference.
func (f *FD) CovarianceDiff(a [][]float64) float64 {
	b := f.Sketch()
	// M = AᵀA − BᵀB applied implicitly to vectors.
	apply := func(x []float64) []float64 {
		out := make([]float64, f.d)
		for _, row := range a {
			var dot float64
			for c, v := range row {
				dot += v * x[c]
			}
			for c, v := range row {
				out[c] += dot * v
			}
		}
		for _, row := range b {
			var dot float64
			for c, v := range row {
				dot += v * x[c]
			}
			for c, v := range row {
				out[c] -= dot * v
			}
		}
		return out
	}
	// Power iteration with a deterministic start.
	x := make([]float64, f.d)
	for i := range x {
		x[i] = 1 / math.Sqrt(float64(f.d))
	}
	var lambda float64
	for iter := 0; iter < 100; iter++ {
		y := apply(x)
		var norm float64
		for _, v := range y {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return 0
		}
		for i := range y {
			y[i] /= norm
		}
		lambda = norm
		x = y
	}
	return lambda
}

// jacobiEigen computes the eigendecomposition of a symmetric matrix by
// the cyclic Jacobi method, returning eigenvalues in descending order
// and the matching eigenvectors as columns of the returned matrix.
func jacobiEigen(a [][]float64) ([]float64, [][]float64) {
	n := len(a)
	// Work on a copy.
	m := make([][]float64, n)
	for i := range m {
		m[i] = append([]float64(nil), a[i]...)
	}
	v := make([][]float64, n)
	for i := range v {
		v[i] = make([]float64, n)
		v[i][i] = 1
	}
	for sweep := 0; sweep < 64; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += m[i][j] * m[i][j]
			}
		}
		if off < 1e-22 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				if math.Abs(m[p][q]) < 1e-18 {
					continue
				}
				theta := (m[q][q] - m[p][p]) / (2 * m[p][q])
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < n; k++ {
					mkp, mkq := m[k][p], m[k][q]
					m[k][p] = c*mkp - s*mkq
					m[k][q] = s*mkp + c*mkq
				}
				for k := 0; k < n; k++ {
					mpk, mqk := m[p][k], m[q][k]
					m[p][k] = c*mpk - s*mqk
					m[q][k] = s*mpk + c*mqk
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v[k][p], v[k][q]
					v[k][p] = c*vkp - s*vkq
					v[k][q] = s*vkp + c*vkq
				}
			}
		}
	}
	// Extract and sort eigenpairs descending.
	type pair struct {
		val float64
		idx int
	}
	pairs := make([]pair, n)
	for i := range pairs {
		pairs[i] = pair{m[i][i], i}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if pairs[j].val > pairs[i].val {
				pairs[i], pairs[j] = pairs[j], pairs[i]
			}
		}
	}
	vals := make([]float64, n)
	vecs := make([][]float64, n)
	for i := range vecs {
		vecs[i] = make([]float64, n)
	}
	for newIdx, p := range pairs {
		vals[newIdx] = p.val
		for r := 0; r < n; r++ {
			vecs[r][newIdx] = v[r][p.idx]
		}
	}
	return vals, vecs
}
