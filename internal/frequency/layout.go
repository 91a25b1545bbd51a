package frequency

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/hashx"
)

// Mode is the rule a Layout uses to pick one cell per row for an item
// hash. The values are the mode byte of the Count-Min and Count Sketch
// envelopes (wire version ≥ 2), so they are frozen.
type Mode uint8

const (
	// Derived is the hash-once fast lane: row r reads bucket
	// FastRange(h + r·DeriveH2(h), width), one multiply-add per row on
	// top of the single item hash — the double-hash stream that "An
	// Evaluation of Software Sketches" (Friedman) identifies as the
	// dominant software optimization for this family.
	Derived Mode = iota
	// KWise evaluates one 2-wise polynomial per row on h: the
	// construction the formal analyses assume, and the reference the
	// estimate-compatibility tests judge the fast lane against. One field
	// multiplication and one division per row.
	KWise
	// Fused stores the depth counters an item touches in depth adjacent
	// 64-byte lines: h picks one block column (FastRange over width/8)
	// and a remixed slot word gives each row a 3-bit slot in its line,
	// so an update streams depth consecutive cache lines instead of
	// touching depth distant rows. A cell collision still needs column
	// and slot to match (probability 1/width per row), but collisions
	// across rows are correlated through the shared column; E28 prices
	// that next to the speedup.
	Fused
)

func (m Mode) String() string {
	switch m {
	case Derived:
		return "derived"
	case KWise:
		return "kwise"
	case Fused:
		return "fused"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// fusedMaxDepth caps fused depth: each row's slot is a 3-bit chunk of
// one 64-bit slot word, so 21 rows exhaust it. Fused exists for
// wide-and-shallow shapes where memory, not hashing, dominates.
const fusedMaxDepth = 21

// Layout is the shape of a hashed-counter table and the one definition
// of which cell an item hash reads in each row. Count-Min (plain,
// conservative, atomic, buffered), Count Sketch and both SF-sketch
// stages hold a Layout over one flat counter slice and keep only their
// cell operation; merge is a cell-wise sum exactly between holders of
// the same Layout (Same).
//
// Fill the exported fields and hand the value to a constructor, which
// builds it: Build rejects shapes no table can have, rounds a fused
// width up to whole cache lines and draws the KWise rows from Seed.
type Layout struct {
	Width, Depth int
	Mode         Mode
	Seed         uint64 // hashes items (by the holder) and draws the KWise rows

	// signed marks Count Sketch's variant: the remix of DeriveH2(h) that
	// an unsigned layout spends on fused slots is its sign word, so its
	// slot word is remixed once more (a shared word would tie row 0's sign
	// to one of its slot bits and bias that row), and its KWise bucket
	// rows take the even sub-seeds because the sign rows hold the odd ones.
	signed bool
	rows   []*hashx.KWise // KWise mode, one per row; immutable once built
	blocks uint64         // Fused mode: 8-counter block columns (Width/8)
}

// Build validates and completes the layout.
func (l Layout) Build() (Layout, error) { return l.build(false) }

func (l Layout) build(signed bool) (Layout, error) {
	l, err := l.shaped()
	if err != nil {
		return l, err
	}
	l.signed, l.rows = signed, nil
	if l.Mode == KWise {
		stride := 1
		if signed {
			stride = 2
		}
		seeds := hashx.SeedSequence(l.Seed, stride*l.Depth)
		l.rows = make([]*hashx.KWise, l.Depth)
		for r := range l.rows {
			l.rows[r] = hashx.NewKWise(2, seeds[stride*r])
		}
	}
	return l, nil
}

// shaped is build less the KWise rows: it refuses shapes no table can
// have and rounds a fused width, which is all that the size of a table
// and the place of its cells on the wire depend on.
func (l Layout) shaped() (Layout, error) {
	if l.Width < 1 || l.Depth < 1 {
		return l, fmt.Errorf("dimensions %dx%d must be positive", l.Width, l.Depth)
	}
	switch l.Mode {
	case Derived, KWise:
	case Fused:
		if l.Depth > fusedMaxDepth {
			return l, fmt.Errorf("fused depth %d must be <= %d (3 slot bits per row from a 64-bit word)", l.Depth, fusedMaxDepth)
		}
		l.Width = (l.Width + 7) &^ 7
		l.blocks = uint64(l.Width / 8)
	default:
		return l, fmt.Errorf("unknown layout %v", l.Mode)
	}
	if uint64(l.Width) > math.MaxUint32/uint64(l.Depth) {
		return l, fmt.Errorf("%dx%d exceeds 2^32 cells", l.Width, l.Depth)
	}
	return l, nil
}

// mustBuild is build for constructors, whose callers pass shapes they
// chose: a bad one is a programming error.
func mustBuild(l Layout, signed bool) Layout {
	b, err := l.build(signed)
	if err != nil {
		panic("frequency: " + err.Error())
	}
	return b
}

// Len is the number of counters in the table.
func (l *Layout) Len() int { return l.Width * l.Depth }

// Same reports whether two layouts send every item to the same cells.
func (l Layout) Same(o Layout) bool {
	return l.Width == o.Width && l.Depth == o.Depth && l.Mode == o.Mode &&
		l.Seed == o.Seed && l.signed == o.signed
}

func (l Layout) String() string {
	return fmt.Sprintf("%v %dx%d/seed=%d", l.Mode, l.Width, l.Depth, l.Seed)
}

const (
	// StackDepth is the depth up to which Cells works in the caller's
	// stack buffer; real configurations use depth = O(log 1/δ) ≲ 30.
	// Deeper tables cost one allocation per call.
	StackDepth = 32
	// BatchCells sizes the index buffer of a two-phase batch loop: 256
	// items of a depth-4 table, staged on the stack, give the memory
	// system a long run of independent accesses to overlap.
	BatchCells = 1024
)

// Cells resolves item hash h to the flat index of its cell in each row,
// in row order, using buf when it is large enough. Callers pass
// buf[:] of a [StackDepth]uint32.
func (l *Layout) Cells(h uint64, buf []uint32) []uint32 {
	if l.Depth > len(buf) {
		buf = make([]uint32, l.Depth)
	}
	idx := buf[:l.Depth]
	switch l.Mode {
	case Derived:
		h2, w, base := hashx.DeriveH2(h), uint64(l.Width), uint64(0)
		for r := range idx {
			idx[r] = uint32(base + hashx.FastRange(h, w))
			h += h2
			base += w
		}
	case KWise:
		for r, row := range l.rows {
			idx[r] = uint32(r*l.Width + row.HashRange(h, l.Width))
		}
	case Fused:
		// The slot word remixes DeriveH2(h) so slot bits never correlate
		// with the forced-odd double-hashing stride.
		slots := hashx.Mix64(hashx.DeriveH2(h))
		if l.signed {
			slots = hashx.Mix64(slots)
		}
		base := hashx.FastRange(h, l.blocks) * uint64(l.Depth) * 8
		for r := range idx {
			idx[r] = uint32(base + slots&7)
			base += 8
			slots >>= 3
		}
	}
	return idx
}

// CellsBatch is phase 1 of a two-phase batch update: pure ALU work that
// resolves the longest prefix of hs whose indices fit buf (callers pass
// buf[:] of a [BatchCells]uint32) and returns them with the number of
// hashes taken. Phase 2 is then one linear walk of idx applying the
// holder's cell operation, so consecutive items' cache misses overlap
// instead of each miss serializing behind the next item's hash math.
// Counter adds commute, which is what frees the order: idx comes in the
// layout's own streaming order — Derived sweeps row by row,
// up to n independent read-modify-writes into one row before the next;
// KWise and Fused go item by item, Fused thereby walking each item's
// depth consecutive cache lines as one prefetchable run.
func (l *Layout) CellsBatch(hs []uint64, buf []uint32) (idx []uint32, n int) {
	if l.Depth > len(buf) {
		buf = make([]uint32, l.Depth)
	}
	n = min(len(hs), len(buf)/l.Depth)
	idx = buf[:n*l.Depth]
	if l.Mode != Derived {
		for i, h := range hs[:n] {
			l.Cells(h, idx[i*l.Depth:])
		}
		return idx, n
	}
	w := uint64(l.Width)
	for i, h := range hs[:n] {
		h2, base := hashx.DeriveH2(h), uint64(0)
		for k := i; k < len(idx); k += n {
			idx[k] = uint32(base + hashx.FastRange(h, w))
			h += h2
			base += w
		}
	}
	return idx, n
}

// RowMajor reports the order CellsBatch gave a chunk of n items: true,
// idx[r*n+i] is item i's cell in row r (Derived); false, idx[i*Depth+r]
// is. A weighted phase 2 pairs each cell with its item's weight by it.
func (l *Layout) RowMajor() bool { return l.Mode == Derived }

// bucket is the row-relative bucket, in [0, Width), of flat cell j in
// row r: the inverse of Cells for callers that keep per-row state.
func (l *Layout) bucket(r, j int) int {
	if l.Mode == Fused {
		return j/(8*l.Depth)*8 + j%8
	}
	return j - r*l.Width
}

// rowRuns calls visit with each contiguous index range [lo, hi) of row
// r's counters, in bucket order: the whole row, or in Fused its one
// line per block column.
func (l *Layout) rowRuns(r int, visit func(lo, hi int)) {
	run, stride := l.Width, l.Len()
	if l.Mode == Fused {
		run, stride = 8, 8*l.Depth
	}
	for lo := r * run; lo < l.Len(); lo += stride {
		visit(lo, lo+run)
	}
}

// wireParts is how many length-prefixed slices the table travels as:
// one per row, except Fused, whose rows interleave, as one.
func (l *Layout) wireParts() int {
	if l.Mode == Fused {
		return 1
	}
	return l.Depth
}

// wireSize is the bytes the table travels as: a count before each part,
// eight per cell.
func (l *Layout) wireSize() int { return 4*l.wireParts() + 8*l.Len() }

// wireTable is the table as a merge of envelopes walks it.
func (l *Layout) wireTable() core.WireTable {
	return core.WireTable{Parts: l.wireParts(), Words: l.Len() / l.wireParts()}
}

// writeTable appends the cells of a table of layout l, part by part, as
// blocks. An atomic table is a serving holder's, loaded cell by cell
// into the envelope.
func writeTable[T uint64 | int64 | atomic.Uint64](w *core.Writer, l *Layout, cells []T) {
	part := len(cells) / l.wireParts()
	for ; len(cells) > 0; cells = cells[part:] {
		w.U32(uint32(part))
		core.WriteBlock(w, cells[:part])
	}
}

// readTable decodes what writeTable wrote straight into one flat table.
// The length check comes first, so a forged shape cannot make a short
// payload allocate a large table.
func readTable[T uint64 | int64](r *core.Reader, l *Layout) ([]T, error) {
	parts := l.wireParts()
	part := l.Len() / parts
	if r.Remaining() < l.wireSize() {
		return nil, fmt.Errorf("%w: payload shorter than a %v table", core.ErrCorrupt, *l)
	}
	cells := make([]T, l.Len())
	for p := 0; p < parts; p++ {
		if got := int(r.U32()); got != part {
			return nil, fmt.Errorf("%w: table slice %d holds %d counters, want %d", core.ErrCorrupt, p, got, part)
		}
		core.ReadBlock(r, cells[p*part:(p+1)*part])
	}
	return cells, r.Err()
}

// minAt is the Count-Min point estimate: the minimum of cells at idx.
func minAt(cells []uint64, idx []uint32) uint64 {
	est := uint64(math.MaxUint64)
	for _, j := range idx {
		if v := cells[j]; v < est {
			est = v
		}
	}
	return est
}
