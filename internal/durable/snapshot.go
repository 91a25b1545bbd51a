package durable

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Snapshot file format:
//
//	header:  "DSN1" magic (4 bytes) + version byte
//	records: u32 payload length
//	         u32 CRC32C of the payload
//	         payload (version 1):
//	           u64 last applied LSN for this sketch
//	           u32 name length + name bytes
//	           u32 create-request length + JSON CreateRequest bytes
//	           u32 data length + sketch MarshalBinary envelope
//	         payload (version 2): as version 1, plus a
//	           u32 tenant length + tenant bytes
//	         field between the name and the create request (empty
//	         tenant = default namespace, mirroring the WAL records).
//
// A snapshot is valid only if every record through EOF validates — a
// torn snapshot is rejected whole and recovery falls back to the
// previous one (snapshots commit via write-temp + fsync + rename, so
// a torn file only exists if the filesystem itself lost the rename).
const (
	snapMagic   = "DSN1"
	snapVersion = 2
)

// SketchSnap is one sketch's row in a snapshot: everything needed to
// reconstruct the live entry (creation parameters + serialized state)
// plus the LSN up to which the state already includes WAL records.
// An empty Tenant is the default namespace.
//
// A row handed to a cut carries Stream, which writes the sketch's
// envelope to the Row when the cut reaches it: it sets the Row's LSN
// and streams the envelope under the sketch's WAL lock, so the two
// agree, and the envelope goes from the sketch's own words into the
// file — no copy of it is ever held. An error leaves the row out of
// the snapshot. A row without Stream is written with its LastLSN and
// Data as they stand, and rows read back from a file carry those two.
type SketchSnap struct {
	Tenant  string
	Name    string
	Req     []byte // JSON CreateRequest
	LastLSN uint64
	Data    []byte // MarshalBinary envelope
	Stream  func(row *Row) error
}

// Row is the sink a SketchSnap's Stream writes to, a core.Sink. Stream
// sets LSN to the last LSN the envelope holds, then the envelope
// follows: Begin with its exact length, which frames the record, then
// Write for each of its chunks, which pass through the CRC into the
// file. A row whose chunks do not add up to the length Begin was told
// fails, and the cut takes its bytes back out of the file.
type Row struct {
	LSN   uint64
	file  *snapFile
	snap  *SketchSnap
	at    int64 // file offset of the record
	left  int   // envelope bytes Begin was told of less those Write has seen
	crc   uint32
	begun bool
}

// Begin writes the record's framing for an envelope of size bytes. The
// CRC is patched in once the envelope is through.
func (r *Row) Begin(size int) error {
	if r.begun {
		return fmt.Errorf("durable: row %q begun twice", r.snap.Name)
	}
	r.begun, r.left = true, size
	f := r.file
	h := append(f.head[:0], make([]byte, recordOverhead)...)
	h = binary.LittleEndian.AppendUint64(h, r.LSN)
	h = appendSnapField(h, r.snap.Name)
	h = appendSnapField(h, r.snap.Tenant)
	h = appendSnapField(h, r.snap.Req)
	h = binary.LittleEndian.AppendUint32(h, uint32(size))
	binary.LittleEndian.PutUint32(h, uint32(len(h)-recordOverhead+size))
	r.crc = crc32.Update(0, castagnoli, h[recordOverhead:])
	f.head = h
	f.write(h)
	return f.err
}

// Write streams the envelope's next chunk into the file.
func (r *Row) Write(p []byte) error {
	r.left -= len(p)
	r.crc = crc32.Update(r.crc, castagnoli, p)
	r.file.write(p)
	return r.file.err
}

// Lend returns the cut's gathering buffer, empty.
func (r *Row) Lend() []byte { return r.file.lend[:0] }

// manifest is the JSON document in the MANIFEST file: which snapshot
// file is current and the global LSN at which it cut the log. Records
// with LSN at or below the manifest LSN are subsumed by the snapshot
// (ingest/merge via the finer per-sketch LastLSN, create/delete via
// the manifest LSN itself).
type manifest struct {
	Version  int    `json:"version"`
	Snapshot string `json:"snapshot"`
	LSN      uint64 `json:"lsn"`
}

func snapFileName(lsn uint64) string { return fmt.Sprintf("snap-%020d.snap", lsn) }
func walFileName(seq uint64) string  { return fmt.Sprintf("wal-%020d.log", seq) }
func manifestPath(dir string) string { return filepath.Join(dir, "MANIFEST") }

// writeSnapshot commits rows as the snapshot file name in dir, through
// a temp file as writeFileSync does. Each row is streamed in its turn:
// its framing, then its envelope chunk by chunk through a 64 KB buffer
// into the file, folded into the CRC on the way, then the CRC patched
// in. So a cut holds no envelope — the largest sketch's words go from
// its table to the file — and no copy of the file. A row whose Stream
// fails is taken back out and left out of the snapshot. It returns the
// number of rows written.
func writeSnapshot(dir, name string, rows []SketchSnap) (int, error) {
	written := 0
	err := commitFile(dir, name, func(f *os.File) error {
		sf := &snapFile{f: f, buf: make([]byte, 0, 64<<10), lend: make([]byte, 0, 4<<10)}
		sf.buf = append(sf.buf, snapMagic...)
		sf.buf = append(sf.buf, snapVersion)
		for i := range rows {
			err := sf.writeRow(&rows[i])
			if sf.err != nil {
				return sf.err
			}
			if err == nil {
				written++
			}
		}
		sf.flush()
		return sf.err
	})
	return written, err
}

// snapFile is a snapshot file being written: a buffer in front of the
// file, which a row's record can be patched or cut back in.
type snapFile struct {
	f    *os.File
	buf  []byte // bytes not yet written, from file offset off on
	off  int64
	err  error  // the first I/O error: the cut fails
	head []byte // the record framing Begin builds
	lend []byte // the buffer Row.Lend lends
}

// writeRow writes one row's record. A row that fails is cut back out,
// so the file never holds a mis-framed record; an I/O error is sf.err.
func (sf *snapFile) writeRow(s *SketchSnap) error {
	r := &Row{LSN: s.LastLSN, file: sf, snap: s, at: sf.off + int64(len(sf.buf))}
	var err error
	if s.Stream != nil {
		err = s.Stream(r)
	} else if err = r.Begin(len(s.Data)); err == nil {
		err = r.Write(s.Data)
	}
	switch {
	case err != nil:
	case !r.begun:
		err = fmt.Errorf("durable: row %q streamed no envelope", s.Name)
	case r.left != 0:
		err = fmt.Errorf("durable: row %q streamed %+d bytes off the size it stated", s.Name, -r.left)
	}
	if err != nil {
		sf.cut(r.at)
		return err
	}
	sf.patch(r.at+4, binary.LittleEndian.AppendUint32(sf.head[:0], r.crc))
	return nil
}

// write appends p to the file: through the buffer, or straight to the
// file when it would fill the buffer by itself.
func (sf *snapFile) write(p []byte) {
	if len(sf.buf)+len(p) > cap(sf.buf) {
		sf.flush()
		if len(p) >= cap(sf.buf) {
			sf.out(p)
			return
		}
	}
	sf.buf = append(sf.buf, p...)
}

func (sf *snapFile) flush() {
	sf.out(sf.buf)
	sf.buf = sf.buf[:0]
}

// out writes p to the file at off.
func (sf *snapFile) out(p []byte) {
	if sf.err == nil && len(p) > 0 {
		var n int
		n, sf.err = sf.f.Write(p)
		sf.off += int64(n)
	}
}

// patch overwrites the bytes at file offset at with p: in the buffer
// while they are still there, else with one WriteAt once the buffer
// in front of them is out.
func (sf *snapFile) patch(at int64, p []byte) {
	if at >= sf.off {
		copy(sf.buf[at-sf.off:], p)
		return
	}
	sf.flush()
	if sf.err == nil {
		_, sf.err = sf.f.WriteAt(p, at)
	}
}

// cut drops everything written from file offset at on.
func (sf *snapFile) cut(at int64) {
	if at >= sf.off {
		sf.buf = sf.buf[:at-sf.off]
		return
	}
	sf.buf = sf.buf[:0]
	if sf.err == nil {
		sf.err = sf.f.Truncate(at)
	}
	if sf.err == nil {
		_, sf.err = sf.f.Seek(at, io.SeekStart)
	}
	sf.off = at
}

// appendSnapField appends a u32 length and the bytes of v.
func appendSnapField[T string | []byte](buf []byte, v T) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
	return append(buf, v...)
}

// decodeSnapshot parses and validates a snapshot file whole; any
// damage rejects the file.
func decodeSnapshot(data []byte) ([]SketchSnap, error) {
	if len(data) < walHeaderLen || string(data[:4]) != snapMagic {
		return nil, fmt.Errorf("%w: bad snapshot header", ErrCorruptLog)
	}
	if data[4] == 0 || data[4] > snapVersion {
		return nil, fmt.Errorf("%w: snapshot version %d, support <= %d", ErrCorruptLog, data[4], snapVersion)
	}
	version := data[4]
	var out []SketchSnap
	off := walHeaderLen
	for off < len(data) {
		if len(data)-off < recordOverhead {
			return nil, fmt.Errorf("%w: torn snapshot record at %d", ErrCorruptLog, off)
		}
		payloadLen := int(binary.LittleEndian.Uint32(data[off:]))
		if payloadLen > MaxRecordBytes || payloadLen > len(data)-off-recordOverhead {
			return nil, fmt.Errorf("%w: implausible snapshot record at %d", ErrCorruptLog, off)
		}
		wantCRC := binary.LittleEndian.Uint32(data[off+4:])
		p := data[off+recordOverhead : off+recordOverhead+payloadLen]
		if Checksum(p) != wantCRC {
			return nil, fmt.Errorf("%w: snapshot record CRC mismatch at %d", ErrCorruptLog, off)
		}
		if len(p) < 8+4 {
			return nil, fmt.Errorf("%w: short snapshot record at %d", ErrCorruptLog, off)
		}
		var s SketchSnap
		s.LastLSN = binary.LittleEndian.Uint64(p)
		p = p[8:]
		nameLen := int(binary.LittleEndian.Uint32(p))
		p = p[4:]
		if nameLen > len(p)-4 {
			return nil, fmt.Errorf("%w: snapshot name overrun at %d", ErrCorruptLog, off)
		}
		s.Name = string(p[:nameLen])
		p = p[nameLen:]
		if version >= 2 {
			tenantLen := int(binary.LittleEndian.Uint32(p))
			p = p[4:]
			if tenantLen > len(p)-4 {
				return nil, fmt.Errorf("%w: snapshot tenant overrun at %d", ErrCorruptLog, off)
			}
			s.Tenant = string(p[:tenantLen])
			p = p[tenantLen:]
		}
		reqLen := int(binary.LittleEndian.Uint32(p))
		p = p[4:]
		if reqLen > len(p)-4 {
			return nil, fmt.Errorf("%w: snapshot request overrun at %d", ErrCorruptLog, off)
		}
		s.Req = append([]byte(nil), p[:reqLen]...)
		p = p[reqLen:]
		dataLen := int(binary.LittleEndian.Uint32(p))
		p = p[4:]
		if dataLen != len(p) {
			return nil, fmt.Errorf("%w: snapshot data overrun at %d", ErrCorruptLog, off)
		}
		s.Data = append([]byte(nil), p...)
		out = append(out, s)
		off += recordOverhead + payloadLen
	}
	return out, nil
}

// writeFileSync writes data to path via a temp file, fsyncs it, and
// atomically renames it into place, then fsyncs the directory so the
// rename itself is durable.
func writeFileSync(dir, name string, data []byte) error {
	return commitFile(dir, name, func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
}

// commitFile is writeFileSync with the content written by write into
// the temp file, which is removed if anything fails.
func commitFile(dir, name string, write func(*os.File) error) error {
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if err := write(tmp); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, filepath.Join(dir, name)); err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(dir)
}

// removeOrphanedTemps deletes the temp files of commits a crash cut
// short (snapshots' and the manifest's "<name>.tmp-*"): a temp file is
// renamed before anything refers to it, so one still there is garbage.
func removeOrphanedTemps(dir string, logf func(string, ...any)) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() && strings.Contains(e.Name(), ".tmp-") {
			logf("durable: removing orphaned temp file %s", e.Name())
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// writeManifest commits the manifest pointing at a snapshot file.
func writeManifest(dir string, m manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return writeFileSync(dir, "MANIFEST", append(data, '\n'))
}

// loadLatestSnapshot finds the newest fully-valid snapshot: the
// manifest's choice first, then any snap-* file in descending LSN
// order (damage to the latest must not lose the store — an older
// snapshot plus a longer WAL replay is still correct, because replay
// skips records each sketch already contains).
func loadLatestSnapshot(dir string, logf func(string, ...any)) (snaps []SketchSnap, lsn uint64, ok bool) {
	tried := map[string]bool{}
	try := func(name string, manifestLSN uint64) bool {
		if name == "" || tried[name] {
			return false
		}
		tried[name] = true
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			logf("durable: snapshot %s unreadable: %v", name, err)
			return false
		}
		s, err := decodeSnapshot(data)
		if err != nil {
			logf("durable: snapshot %s invalid: %v", name, err)
			return false
		}
		snaps, lsn, ok = s, manifestLSN, true
		return true
	}

	if mdata, err := os.ReadFile(manifestPath(dir)); err == nil {
		var m manifest
		if json.Unmarshal(mdata, &m) == nil && m.Version == 1 {
			if try(m.Snapshot, m.LSN) {
				return snaps, lsn, true
			}
		} else {
			logf("durable: MANIFEST unreadable, scanning snapshots")
		}
	}
	for _, name := range listByPrefixDesc(dir, "snap-", ".snap") {
		if try(name, snapLSNFromName(name)) {
			return snaps, lsn, true
		}
	}
	return nil, 0, false
}

// snapLSNFromName recovers the cut LSN embedded in a snapshot file
// name (used only when the manifest is lost).
func snapLSNFromName(name string) uint64 {
	s := strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap")
	n, _ := strconv.ParseUint(s, 10, 64)
	return n
}

func walSeqFromName(name string) uint64 {
	s := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
	n, _ := strconv.ParseUint(s, 10, 64)
	return n
}

// listByPrefixDesc returns matching file names sorted descending;
// listByPrefixAsc ascending. Zero-padded fixed-width numbering makes
// lexical order numeric order.
func listByPrefixDesc(dir, prefix, suffix string) []string {
	names := listByPrefixAsc(dir, prefix, suffix)
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return names
}

func listByPrefixAsc(dir, prefix, suffix string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) &&
			!strings.Contains(name, ".tmp-") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}
