package core

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestWireRoundTrip(t *testing.T) {
	w := NewWriter(TagBloom, 1)
	w.U8(7)
	w.U32(123456)
	w.U64(math.MaxUint64 - 5)
	w.I64(-42)
	w.F64(3.14159)
	w.BytesField([]byte("payload"))
	w.U64Slice([]uint64{1, 2, 3})
	w.I64Slice([]int64{-1, 0, 1})
	w.F64Slice([]float64{0.5, -0.5})

	r, version, err := NewReader(w.Bytes(), TagBloom)
	if err != nil {
		t.Fatal(err)
	}
	if version != 1 {
		t.Fatalf("version %d", version)
	}
	if got := r.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if got := r.U32(); got != 123456 {
		t.Errorf("U32 = %d", got)
	}
	if got := r.U64(); got != math.MaxUint64-5 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.F64(); got != 3.14159 {
		t.Errorf("F64 = %v", got)
	}
	if got := r.BytesField(); string(got) != "payload" {
		t.Errorf("BytesField = %q", got)
	}
	if got := r.U64Slice(); len(got) != 3 || got[2] != 3 {
		t.Errorf("U64Slice = %v", got)
	}
	if got := r.I64Slice(); len(got) != 3 || got[0] != -1 {
		t.Errorf("I64Slice = %v", got)
	}
	if got := r.F64Slice(); len(got) != 2 || got[1] != -0.5 {
		t.Errorf("F64Slice = %v", got)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

func TestWireRejectsBadInput(t *testing.T) {
	w := NewWriter(TagHLL, 2)
	w.U64(99)
	data := w.Bytes()

	if _, _, err := NewReader(data[:3], TagHLL); !errors.Is(err, ErrCorrupt) {
		t.Error("short header accepted")
	}
	if _, _, err := NewReader(data, TagBloom); !errors.Is(err, ErrCorrupt) {
		t.Error("wrong tag accepted")
	}
	bad := append([]byte("XXXX"), data[4:]...)
	if _, _, err := NewReader(bad, TagHLL); !errors.Is(err, ErrCorrupt) {
		t.Error("bad magic accepted")
	}
	// Truncated payload.
	r, _, err := NewReader(data[:10], TagHLL)
	if err != nil {
		t.Fatal(err)
	}
	r.U64()
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Error("truncated payload not flagged")
	}
	// Trailing garbage.
	r2, _, err := NewReader(append(append([]byte(nil), data...), 0xFF), TagHLL)
	if err != nil {
		t.Fatal(err)
	}
	r2.U64()
	if err := r2.Done(); !errors.Is(err, ErrCorrupt) {
		t.Error("trailing bytes not flagged")
	}
}

func TestWireImplausibleLength(t *testing.T) {
	w := NewWriter(TagKLL, 1)
	w.U32(1 << 30) // claims a billion elements with no payload
	r, _, err := NewReader(w.Bytes(), TagKLL)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.U64Slice(); got != nil {
		t.Error("implausible slice decoded")
	}
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Error("implausible length not flagged")
	}
}

func TestWireRoundTripProperty(t *testing.T) {
	f := func(a uint64, b int64, c float64, payload []byte) bool {
		if math.IsNaN(c) {
			c = 0
		}
		w := NewWriter(TagCountMin, 3)
		w.U64(a)
		w.I64(b)
		w.F64(c)
		w.BytesField(payload)
		r, v, err := NewReader(w.Bytes(), TagCountMin)
		if err != nil || v != 3 {
			return false
		}
		if r.U64() != a || r.I64() != b || r.F64() != c {
			return false
		}
		got := r.BytesField()
		if len(got) != len(payload) {
			return false
		}
		for i := range got {
			if got[i] != payload[i] {
				return false
			}
		}
		return r.Done() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr(110, 100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("RelErr = %v", got)
	}
	if got := RelErr(5, 0); got != 5 {
		t.Errorf("RelErr with zero truth = %v", got)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median odd = %v", got)
	}
	if got := Median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("Median even = %v", got)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) should be NaN")
	}
	if got := MedianInt64([]int64{5, 1, 3}); got != 3 {
		t.Errorf("MedianInt64 = %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("demo", "name", "value")
	tbl.AddRow("alpha", 1.5)
	tbl.AddRow("beta-longer", 42)
	out := tbl.String()
	if !strings.Contains(out, "## demo") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "beta-longer") {
		t.Error("missing rows")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, two rows
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
}
