package registry

// StreamMarshal against the parent form of a snapshot row, registry-wide:
// every descriptor, at the law table's shapes, in every variant, streams
// through a durable snapshot cut into the row that the same envelope
// given whole makes.

import (
	"bytes"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"testing"

	"repro/internal/cardinality"
	"repro/internal/core"
	"repro/internal/durable"
)

// misstated is an HLL whose streamed envelope states a length delta
// bytes off the bytes it writes.
type misstated struct {
	*cardinality.HLL
	delta int
}

func (m misstated) StreamBinary(s core.Sink) error {
	env, err := m.HLL.MarshalBinary()
	if err != nil {
		return err
	}
	w := core.OpenWriter(nil, s, env[4], env[5], len(env)-6+m.delta)
	for _, b := range env[6:] {
		w.U8(b)
	}
	_, err = w.Finish()
	return err
}

// cutFile takes one snapshot cut over rows through a durable manager in
// a directory of its own and returns the snapshot file.
func cutFile(t *testing.T, rows []durable.SketchSnap) []byte {
	t.Helper()
	dir := t.TempDir()
	m, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Recover(nopRecovery{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(func() []durable.SketchSnap { return rows }); err != nil {
		t.Fatal(err)
	}
	defer m.Kill()
	if err := m.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(files) != 1 {
		t.Fatalf("snapshot files %v, %v; want one", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	return data
}

type nopRecovery struct{}

func (nopRecovery) Begin(uint64) error                     { return nil }
func (nopRecovery) RestoreSketch(durable.SketchSnap) error { return nil }
func (nopRecovery) Replay(durable.Record) error            { return nil }

// TestStreamedRowsMatchWholeRows: for every family × layout × variant ×
// regime, the row a cut streams from the live instance is byte for byte
// the row of its Marshal bytes given whole — the parent form of a row —
// and decodes back to those bytes and to an instance that marshals to
// them. Two rows whose encoder misstates its length, short and long,
// fail alone: the file is the good rows' file.
func TestStreamedRowsMatchWholeRows(t *testing.T) {
	var whole, streamedRows []durable.SketchSnap
	envs := map[string][]byte{}
	for _, d := range All() {
		row := lawRows[d.Name]
		for _, reg := range regimes {
			for _, lay := range layoutsOf(d) {
				f := newFixture(t, d, row, lay, reg)
				for _, v := range lay.variants {
					c := &cell{f, v}
					all := make([]int, len(c.parts))
					for i := range all {
						all[i] = i
					}
					inst := c.receiver(t, all...)
					name := path.Join(d.Name, lay.name, v.name, reg.name)
					env := mustMarshal(t, inst)
					envs[name] = env
					lsn := uint64(len(whole) + 1)
					req := []byte(fmt.Sprintf(`{"type":%q}`, d.Name))
					whole = append(whole, durable.SketchSnap{Name: name, Req: req, LastLSN: lsn, Data: env})
					streamedRows = append(streamedRows, durable.SketchSnap{Name: name, Req: req, Stream: func(r *durable.Row) error {
						r.LSN = lsn
						return StreamMarshal(r, inst)
					}})
				}
			}
		}
	}
	h := cardinality.NewHLL(10, 1)
	h.AddString("x")
	for _, delta := range []int{8, -8} {
		bad := misstated{h, delta}
		streamedRows = append(streamedRows, durable.SketchSnap{Name: fmt.Sprintf("misstated%+d", delta), Req: []byte("{}"), Stream: func(r *durable.Row) error {
			return StreamMarshal(r, bad)
		}})
	}

	got := cutFile(t, streamedRows)
	if want := cutFile(t, whole); !bytes.Equal(got, want) {
		t.Fatalf("the streamed cut is %d bytes, the cut of whole rows %d, and they differ", len(got), len(want))
	}
	rows, err := durable.DecodeSnapshotFile(got)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(whole) {
		t.Fatalf("decoded %d rows, want %d", len(rows), len(whole))
	}
	for _, r := range rows {
		if !bytes.Equal(r.Data, envs[r.Name]) {
			t.Errorf("%s: row holds %d bytes, Marshal %d", r.Name, len(r.Data), len(envs[r.Name]))
			continue
		}
		inst, _, err := Decode(r.Data)
		if err != nil {
			t.Errorf("%s: %v", r.Name, err)
			continue
		}
		if again := mustMarshal(t, inst); !bytes.Equal(again, r.Data) {
			t.Errorf("%s: the row decodes to an instance that marshals to other bytes", r.Name)
		}
	}
	t.Logf("%d rows, %d bytes", len(rows), len(got))
}
