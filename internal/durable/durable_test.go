package durable

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

func sampleLog(records []Record) []byte {
	buf := WALHeader()
	for _, r := range records {
		buf = AppendRecord(buf, r)
	}
	return buf
}

func sampleRecords() []Record {
	return []Record{
		{LSN: 1, Op: OpCreate, Name: "hll-a", Body: []byte(`{"type":"hll"}`)},
		{LSN: 2, Op: OpIngest, Name: "hll-a", Body: []byte("alpha\nbeta\ngamma")},
		{LSN: 3, Op: OpIngest, Name: "hll-a", Body: []byte("delta")},
		{LSN: 4, Op: OpDelete, Name: "hll-a"},
	}
}

func replayAll(t *testing.T, data []byte, lastLSN uint64) (recs []Record, consumed int, last uint64) {
	t.Helper()
	consumed, last, err := ReplayLog(data, lastLSN, func(r Record) error {
		recs = append(recs, Record{LSN: r.LSN, Op: r.Op, Name: r.Name, Body: append([]byte(nil), r.Body...)})
		return nil
	})
	if err != nil {
		t.Fatalf("ReplayLog: %v", err)
	}
	return recs, consumed, last
}

func TestWALRoundtrip(t *testing.T) {
	want := sampleRecords()
	data := sampleLog(want)
	got, consumed, last := replayAll(t, data, 0)
	if consumed != len(data) {
		t.Fatalf("consumed %d of %d bytes", consumed, len(data))
	}
	if last != 4 {
		t.Fatalf("last LSN %d, want 4", last)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].LSN != want[i].LSN || got[i].Op != want[i].Op || got[i].Name != want[i].Name ||
			!bytes.Equal(got[i].Body, want[i].Body) {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestWALReplaySkipsAlreadySeen(t *testing.T) {
	data := sampleLog(sampleRecords())
	got, _, _ := replayAll(t, data, 2)
	// Records with LSN <= 2 fail the strictly-increasing rule at the
	// head, so replay ends the valid prefix there: a caller resuming
	// past a log's own records must slice the log, not skip by LSN.
	if len(got) != 0 {
		t.Fatalf("replay from lastLSN=2 on a log starting at 1: got %d records, want 0", len(got))
	}
}

func TestWALTornTail(t *testing.T) {
	data := sampleLog(sampleRecords())
	for cut := len(data) - 1; cut > len(data)-12; cut-- {
		got, consumed, last := replayAll(t, data[:cut], 0)
		if len(got) != 3 || last != 3 {
			t.Fatalf("cut at %d: replayed %d records (last %d), want 3 records", cut, len(got), last)
		}
		if consumed > cut {
			t.Fatalf("cut at %d: consumed %d past the data", cut, consumed)
		}
	}
}

func TestWALBitFlip(t *testing.T) {
	recs := sampleRecords()
	data := sampleLog(recs)
	// Flip one byte in every position of the second record's span; the
	// valid prefix must always end after record one (never over-replay,
	// never panic). Find record 2's span by encoding incrementally.
	oneRec := len(sampleLog(recs[:1]))
	twoRec := len(sampleLog(recs[:2]))
	for off := oneRec; off < twoRec; off++ {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		got, _, last := replayAll(t, mut, 0)
		if len(got) > 1 || last > 1 {
			t.Fatalf("bit flip at %d: replayed %d records (last %d), want <= 1", off, len(got), last)
		}
	}
}

func TestWALRejectsNonMonotonicLSN(t *testing.T) {
	buf := WALHeader()
	buf = AppendRecord(buf, Record{LSN: 5, Op: OpIngest, Name: "a", Body: []byte("x")})
	buf = AppendRecord(buf, Record{LSN: 5, Op: OpIngest, Name: "a", Body: []byte("y")})
	got, _, last := replayAll(t, buf, 0)
	if len(got) != 1 || last != 5 {
		t.Fatalf("duplicate LSN: replayed %d records (last %d), want exactly 1", len(got), last)
	}
}

func TestWALRejectsForeignHeader(t *testing.T) {
	if _, _, err := ReplayLog([]byte("GSK1xxxxxxxx"), 0, nil); err == nil {
		t.Fatal("foreign magic accepted")
	}
	if _, _, err := ReplayLog([]byte("DU"), 0, nil); err == nil {
		t.Fatal("short header accepted")
	}
	future := WALHeader()
	future[4] = walVersion + 1
	if _, _, err := ReplayLog(future, 0, nil); err == nil {
		t.Fatal("future version accepted")
	}
}

func TestWALImplausibleLength(t *testing.T) {
	buf := WALHeader()
	buf = binary.LittleEndian.AppendUint32(buf, MaxRecordBytes+1)
	buf = append(buf, make([]byte, 64)...)
	got, _, _ := replayAll(t, buf, 0)
	if len(got) != 0 {
		t.Fatalf("oversized length field: replayed %d records, want 0", len(got))
	}
}

// snapshotFile commits rows through writeSnapshot and returns the file.
func snapshotFile(t *testing.T, rows []SketchSnap) []byte {
	t.Helper()
	dir := t.TempDir()
	if _, err := writeSnapshot(dir, "test.snap", rows); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "test.snap"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSnapshotRoundtrip(t *testing.T) {
	want := []SketchSnap{
		{Name: "a", Req: []byte(`{"type":"hll"}`), LastLSN: 12, Data: []byte("GSK1-bytes-a")},
		{Tenant: "acme", Name: "b", Req: []byte(`{"type":"kll","k":200}`), LastLSN: 7, Data: []byte("GSK1-bytes-b")},
		{Name: "", Req: []byte(`{}`), LastLSN: 0, Data: nil},
	}
	got, err := decodeSnapshot(snapshotFile(t, want))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Tenant != want[i].Tenant || got[i].Name != want[i].Name || got[i].LastLSN != want[i].LastLSN ||
			!bytes.Equal(got[i].Req, want[i].Req) || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Errorf("row %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestSnapshotFormatUnchanged pins the file's bytes: the digest was
// taken from the whole-file encoder that streaming rows replaced, over
// the same rows, the last of them larger than the write buffer.
func TestSnapshotFormatUnchanged(t *testing.T) {
	const want = "7735a4d06e77bdf7abe9946c7eb23e8719e945401ec1a018386169b4ac10d4ea"
	rows := []SketchSnap{
		{Name: "a", Req: []byte(`{"type":"hll"}`), LastLSN: 12, Data: []byte("GSK1-bytes-a")},
		{Tenant: "acme", Name: "b", Req: []byte(`{"type":"kll","k":200}`), LastLSN: 7, Data: []byte("GSK1-bytes-b")},
		{Name: "", Req: []byte(`{}`), LastLSN: 0, Data: nil},
		{Tenant: "t", Name: "big", Req: []byte(`{"type":"countmin"}`), LastLSN: 1 << 40, Data: bytes.Repeat([]byte("0123456789abcdef"), 200<<10/16+3)},
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(snapshotFile(t, rows))); got != want {
		t.Fatalf("snapshot file sha256 %s, want %s", got, want)
	}
	// A row streamed when its turn comes, in chunks of any size, lands
	// exactly as that row given its bytes up front.
	for i := range rows {
		rows[i] = streamed(rows[i], 1, 7, 70000)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(snapshotFile(t, rows))); got != want {
		t.Fatalf("streamed rows: snapshot file sha256 %s, want %s", got, want)
	}
}

// streamed is row with its Data and LastLSN written by a Stream instead,
// in chunks of the given sizes, in turn.
func streamed(row SketchSnap, chunks ...int) SketchSnap {
	data, lsn := row.Data, row.LastLSN
	row.Data, row.LastLSN = nil, 0
	row.Stream = func(r *Row) error {
		r.LSN = lsn
		if err := r.Begin(len(data)); err != nil {
			return err
		}
		for i, rest := 0, data; len(rest) > 0; i++ {
			n := min(len(rest), chunks[i%len(chunks)])
			if err := r.Write(rest[:n]); err != nil {
				return err
			}
			rest = rest[n:]
		}
		return nil
	}
	return row
}

// A row whose Stream fails, or whose chunks do not add up to the length
// it stated, is taken back out of the file — within the write buffer or
// past it — and the rows around it are written as if it were not there.
func TestSnapshotSkipsFailedCapture(t *testing.T) {
	big := bytes.Repeat([]byte("x"), 100<<10)
	ok := SketchSnap{Name: "ok", Req: []byte("{}"), LastLSN: 5, Data: []byte("state")}
	plain := SketchSnap{Name: "plain", Req: []byte("{}"), LastLSN: 7, Data: []byte("bytes")}
	fails := func(name string, size int, chunks [][]byte, err error) SketchSnap {
		return SketchSnap{Name: name, Req: []byte("{}"), Stream: func(r *Row) error {
			r.LSN = 6
			if e := r.Begin(size); e != nil {
				return e
			}
			for _, c := range chunks {
				if e := r.Write(c); e != nil {
					return e
				}
			}
			return err
		}}
	}
	rows := []SketchSnap{
		streamed(ok, 2),
		fails("broken", 20, [][]byte{[]byte("partial")}, errors.New("does not serialize")),
		fails("broken-big", 2*len(big), [][]byte{big}, errors.New("does not serialize")),
		fails("short", 10, [][]byte{[]byte("12345")}, nil),
		fails("short-big", len(big)+1, [][]byte{big}, nil),
		fails("over", 3, [][]byte{[]byte("12345")}, nil),
		{Name: "silent", Req: []byte("{}"), Stream: func(*Row) error { return nil }},
		plain,
	}
	dir := t.TempDir()
	n, err := writeSnapshot(dir, "test.snap", rows)
	if err != nil || n != 2 {
		t.Fatalf("writeSnapshot: %d rows, %v; want 2 rows", n, err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "test.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if want := snapshotFile(t, []SketchSnap{ok, plain}); !bytes.Equal(data, want) {
		t.Fatalf("file of %d bytes, want the %d bytes of the two good rows alone", len(data), len(want))
	}
}

func TestSnapshotRejectsDamage(t *testing.T) {
	data := snapshotFile(t, []SketchSnap{{Name: "a", Req: []byte("{}"), LastLSN: 1, Data: []byte("xyz")}})
	for _, mut := range [][]byte{
		data[:len(data)-1],              // torn tail
		append([]byte("XXXX"), data...), // foreign prefix
	} {
		if _, err := decodeSnapshot(mut); err == nil {
			t.Fatal("damaged snapshot accepted")
		}
	}
	flip := append([]byte(nil), data...)
	flip[len(flip)-2] ^= 1
	if _, err := decodeSnapshot(flip); err == nil {
		t.Fatal("bit-flipped snapshot accepted")
	}
}

// collectHandler records everything Recover feeds it.
type collectHandler struct {
	snapLSN  uint64
	restored []SketchSnap
	replayed []Record
}

func (h *collectHandler) Begin(lsn uint64) error { h.snapLSN = lsn; return nil }
func (h *collectHandler) RestoreSketch(s SketchSnap) error {
	h.restored = append(h.restored, s)
	return nil
}
func (h *collectHandler) Replay(r Record) error {
	h.replayed = append(h.replayed, Record{LSN: r.LSN, Op: r.Op, Name: r.Name, Body: append([]byte(nil), r.Body...)})
	return nil
}

func TestManagerAppendSyncRecover(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{FsyncInterval: 0}) // per-batch commit
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Recover(&collectHandler{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(func() []SketchSnap { return nil }); err != nil {
		t.Fatal(err)
	}
	for i, rec := range sampleRecords() {
		if lsn := m.Append(rec.Op, rec.Tenant, rec.Name, rec.Body); lsn != uint64(i+1) {
			t.Fatalf("Append %d: lsn %d, want %d", i, lsn, i+1)
		}
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	st := m.Status()
	if !st.Enabled || st.WALLSN != 4 || st.WALBytes <= int64(walHeaderLen) || st.LastFsyncAgeMS < 0 {
		t.Fatalf("status after sync: %+v", st)
	}
	m.Kill() // no final snapshot: recovery must come from the WAL alone

	m2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var h collectHandler
	stats, err := m2.Recover(&h)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RecordsReplayed != 4 || len(h.replayed) != 4 || h.snapLSN != 0 {
		t.Fatalf("recovery stats %+v, replayed %d", stats, len(h.replayed))
	}
	want := sampleRecords()
	for i := range want {
		if h.replayed[i].LSN != want[i].LSN || !bytes.Equal(h.replayed[i].Body, want[i].Body) {
			t.Fatalf("replayed[%d] = %+v, want %+v", i, h.replayed[i], want[i])
		}
	}
	// New appends continue the LSN sequence past the recovered tail.
	if err := m2.Start(func() []SketchSnap { return nil }); err != nil {
		t.Fatal(err)
	}
	if lsn := m2.Append(OpIngest, "", "hll-a", []byte("eps")); lsn != 5 {
		t.Fatalf("post-recovery Append lsn %d, want 5", lsn)
	}
	m2.Close()
}

func TestManagerSnapshotTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{FsyncInterval: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Recover(&collectHandler{}); err != nil {
		t.Fatal(err)
	}
	captured := []SketchSnap{{Name: "a", Req: []byte(`{"type":"hll"}`), LastLSN: 2, Data: []byte("state")}}
	if err := m.Start(func() []SketchSnap { return captured }); err != nil {
		t.Fatal(err)
	}
	m.Append(OpCreate, "", "a", []byte(`{"type":"hll"}`))
	m.Append(OpIngest, "", "a", []byte("x"))
	if err := m.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	m.Append(OpIngest, "", "a", []byte("y")) // lands in the post-rotation segment
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	segs := listByPrefixAsc(dir, "wal-", ".log")
	if len(segs) != 1 {
		t.Fatalf("after snapshot: %d WAL segments %v, want 1 (older truncated)", len(segs), segs)
	}
	if st := m.Status(); st.LastSnapshotLSN != 2 {
		t.Fatalf("LastSnapshotLSN %d, want 2", st.LastSnapshotLSN)
	}
	m.Kill()

	m2, _ := Open(dir, Options{})
	var h collectHandler
	if _, err := m2.Recover(&h); err != nil {
		t.Fatal(err)
	}
	if h.snapLSN != 2 || len(h.restored) != 1 || h.restored[0].Name != "a" {
		t.Fatalf("snapshot recovery: snapLSN %d, restored %+v", h.snapLSN, h.restored)
	}
	if len(h.replayed) != 1 || h.replayed[0].LSN != 3 || !bytes.Equal(h.replayed[0].Body, []byte("y")) {
		t.Fatalf("WAL tail after snapshot: %+v", h.replayed)
	}
}

// TestCutKeepsGroupCommit: while a cut's helper streams a row that holds
// it for 500 ms — a sketch's lock taken, a slow disk — the syncer keeps
// taking appends and fsyncs them on its 50 ms tick, so commits go on
// completing while the row is held. (At 50 ms a commit, up to ten
// complete; one is asked for, because on a disk other tests are loading
// an fsync can take 200–300 ms. A syncer that only drains the queue
// completes none.)
func TestCutKeepsGroupCommit(t *testing.T) {
	m, err := Open(t.TempDir(), Options{FsyncInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Recover(&collectHandler{}); err != nil {
		t.Fatal(err)
	}
	held, released := make(chan struct{}), make(chan struct{})
	slow := SketchSnap{Name: "slow", Req: []byte("{}"), Stream: func(r *Row) error {
		close(held)
		time.Sleep(500 * time.Millisecond)
		close(released)
		if err := r.Begin(5); err != nil {
			return err
		}
		return r.Write([]byte("state"))
	}}
	if err := m.Start(func() []SketchSnap { return []SketchSnap{slow} }); err != nil {
		t.Fatal(err)
	}
	defer m.Kill()
	m.Append(OpCreate, "", "slow", []byte("{}"))
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	cut := make(chan error, 1)
	go func() { cut <- m.SnapshotNow() }()
	<-held
	last, commits, worst := m.lastFsync.Load(), 0, int64(0)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for holding := true; holding; {
		select {
		case <-released:
			holding = false
		case <-tick.C:
			m.Append(OpIngest, "", "slow", []byte("x"))
		}
		if at := m.lastFsync.Load(); at != last {
			last, commits = at, commits+1
		}
		worst = max(worst, m.Status().LastFsyncAgeMS)
	}
	if err := <-cut; err != nil {
		t.Fatal(err)
	}
	if commits == 0 {
		t.Fatalf("no commit completed while a row held the cut for 500 ms (the last fsync grew %d ms old)", worst)
	}
	t.Logf("%d commits completed while the row was held; the last fsync was at most %d ms old", commits, worst)
}

func TestRecoverFallsBackToOlderSnapshot(t *testing.T) {
	dir := t.TempDir()
	old := snapshotFile(t, []SketchSnap{{Name: "old", Req: []byte("{}"), LastLSN: 1, Data: []byte("v1")}})
	if err := os.WriteFile(filepath.Join(dir, snapFileName(1)), old, 0o644); err != nil {
		t.Fatal(err)
	}
	bad := snapshotFile(t, []SketchSnap{{Name: "new", Req: []byte("{}"), LastLSN: 9, Data: []byte("v2")}})
	bad[len(bad)-1] ^= 1
	if err := os.WriteFile(filepath.Join(dir, snapFileName(9)), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeManifest(dir, manifest{Version: 1, Snapshot: snapFileName(9), LSN: 9}); err != nil {
		t.Fatal(err)
	}
	m, _ := Open(dir, Options{})
	var h collectHandler
	if _, err := m.Recover(&h); err != nil {
		t.Fatal(err)
	}
	if h.snapLSN != 1 || len(h.restored) != 1 || h.restored[0].Name != "old" {
		t.Fatalf("fallback recovery: snapLSN %d, restored %+v", h.snapLSN, h.restored)
	}
}

// A crash mid-commit leaves a temp file nothing refers to; recovery
// removes it and loads the committed snapshot beside it.
func TestRecoverRemovesOrphanedTemps(t *testing.T) {
	dir := t.TempDir()
	if _, err := writeSnapshot(dir, snapFileName(3), []SketchSnap{{Name: "a", Req: []byte("{}"), LastLSN: 3, Data: []byte("v")}}); err != nil {
		t.Fatal(err)
	}
	if err := writeManifest(dir, manifest{Version: 1, Snapshot: snapFileName(3), LSN: 3}); err != nil {
		t.Fatal(err)
	}
	orphans := []string{snapFileName(9) + ".tmp-123456", "MANIFEST.tmp-654321"}
	for _, name := range orphans {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, _ := Open(dir, Options{})
	var h collectHandler
	if _, err := m.Recover(&h); err != nil {
		t.Fatal(err)
	}
	for _, name := range orphans {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s survived recovery (stat: %v)", name, err)
		}
	}
	if h.snapLSN != 3 || len(h.restored) != 1 || h.restored[0].Name != "a" || string(h.restored[0].Data) != "v" {
		t.Fatalf("recovery beside orphans: snapLSN %d, restored %+v", h.snapLSN, h.restored)
	}
}

func TestRecoverTruncatesTornSegmentOnDisk(t *testing.T) {
	dir := t.TempDir()
	m, _ := Open(dir, Options{FsyncInterval: 0})
	m.Recover(&collectHandler{})
	m.Start(func() []SketchSnap { return nil })
	m.Append(OpCreate, "", "a", []byte(`{"type":"hll"}`))
	m.Append(OpIngest, "", "a", []byte("x"))
	m.Sync()
	m.Kill()

	seg := listByPrefixAsc(dir, "wal-", ".log")[0]
	path := filepath.Join(dir, seg)
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, append(data, "garbage-partial-record"...), 0o644); err != nil {
		t.Fatal(err)
	}

	m2, _ := Open(dir, Options{})
	var h collectHandler
	stats, err := m2.Recover(&h)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.replayed) != 2 || stats.TornSegments != 1 {
		t.Fatalf("torn-tail recovery: %d records, stats %+v", len(h.replayed), stats)
	}
	after, _ := os.ReadFile(path)
	if !bytes.Equal(after, data) {
		t.Fatalf("segment not truncated back to the valid prefix: %d bytes, want %d", len(after), len(data))
	}
	// A third recovery sees a clean log.
	m3, _ := Open(dir, Options{})
	var h3 collectHandler
	stats3, _ := m3.Recover(&h3)
	if len(h3.replayed) != 2 || stats3.TornSegments != 0 {
		t.Fatalf("post-truncation recovery: %d records, stats %+v", len(h3.replayed), stats3)
	}
	if !reflect.DeepEqual(h3.replayed, h.replayed) {
		t.Fatal("post-truncation replay differs")
	}
}

// A rotation whose flush, fsync or close fails is reported, and the
// segment that could not be made durable stays the active one: the
// parent commit dropped all three errors, opened the next segment and
// answered nil.
func TestRotationReportsSegmentErrors(t *testing.T) {
	for name, rotateNow := range map[string]func(*Manager) error{
		"SealActive":  (*Manager).SealActive,
		"SnapshotNow": (*Manager).SnapshotNow,
	} {
		m, err := Open(t.TempDir(), Options{FsyncInterval: 0})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Start(func() []SketchSnap { return nil }); err != nil {
			t.Fatal(err)
		}
		m.Append(OpIngest, "", "s", []byte("a"))
		// Sync orders the syncer's last write of m.f before this read.
		if err := m.Sync(); err != nil {
			t.Fatal(err)
		}
		m.f.Close() // the disk goes away under the manager
		if err := rotateNow(m); err == nil {
			t.Errorf("%s over a closed segment file answered nil", name)
		}
		if got := m.activeSeq.Load(); got != 1 {
			t.Errorf("%s: active segment %d after a failed rotation, want 1", name, got)
		}
		m.Kill()
	}
}

// A failed WAL fsync is reported by every barrier from then on. The
// parent commit dropped the error and fsynced again, and that second
// fsync's nil answered Sync for the records of the first too, whose
// pages the kernel may have dropped with the failed write.
func TestFailedFsyncStaysReported(t *testing.T) {
	var calls atomic.Int32
	syncFile = func(f *os.File) error {
		if calls.Add(1) == 1 {
			return syscall.EIO
		}
		return f.Sync()
	}
	t.Cleanup(func() { syncFile = (*os.File).Sync })
	m, err := Open(t.TempDir(), Options{FsyncInterval: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(func() []SketchSnap { return nil }); err != nil {
		t.Fatal(err)
	}
	for i, body := range []string{"a", "b"} {
		m.Append(OpIngest, "", "s", []byte(body))
		if err := m.Sync(); !errors.Is(err, syscall.EIO) {
			t.Errorf("Sync %d after a failed fsync: %v, want EIO", i+1, err)
		}
	}
	if err := m.SealActive(); !errors.Is(err, syscall.EIO) {
		t.Errorf("SealActive: %v, want EIO", err)
	}
	if err := m.SnapshotNow(); !errors.Is(err, syscall.EIO) {
		t.Errorf("SnapshotNow: %v, want EIO", err)
	}
	if got := m.Status().FsyncError; got != syscall.EIO.Error() {
		t.Errorf("status fsync_error %q, want %q", got, syscall.EIO.Error())
	}
	if err := m.Close(); !errors.Is(err, syscall.EIO) {
		t.Errorf("Close: %v, want EIO", err)
	}
}
