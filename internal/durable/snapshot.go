package durable

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
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
// A row handed to a cut carries Capture, which appends the sketch's
// envelope to dst and returns the LSN that envelope holds, both read
// under the sketch's WAL lock. The cut calls it when the row's turn
// comes to be written, so only one envelope is in memory at a time; an
// error leaves the row out of the snapshot. A row without Capture is
// written with its LastLSN and Data as they stand, and rows read back
// from a file carry those two.
type SketchSnap struct {
	Tenant  string
	Name    string
	Req     []byte // JSON CreateRequest
	LastLSN uint64
	Data    []byte // MarshalBinary envelope
	Capture func(dst []byte) ([]byte, uint64, error)
}

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
// a temp file as writeFileSync does. Rows are captured and written one
// at a time: each record is built in one buffer reused across rows and
// streamed out through a 64 KB writer, so a cut holds the largest
// row's record rather than every envelope and a copy of the file. A
// row is captured when its turn comes; one whose Capture fails is left
// out. It returns the number of rows written.
func writeSnapshot(dir, name string, rows []SketchSnap) (int, error) {
	written := 0
	err := commitFile(dir, name, func(f *os.File) error {
		w := bufio.NewWriterSize(f, 64<<10)
		w.WriteString(snapMagic)
		w.WriteByte(snapVersion) // a bufio error sticks: a later Write or the Flush reports it
		var rec []byte
		for _, s := range rows {
			// Payload length, CRC and LSN are patched once the envelope is in.
			rec = append(rec[:0], make([]byte, recordOverhead+8)...)
			rec = appendSnapField(rec, s.Name)
			rec = appendSnapField(rec, s.Tenant)
			rec = appendSnapField(rec, s.Req)
			dataAt := len(rec)
			rec = binary.LittleEndian.AppendUint32(rec, 0)
			lsn := s.LastLSN
			if s.Capture != nil {
				out, l, err := s.Capture(rec)
				if err != nil {
					continue
				}
				rec, lsn = out, l
			} else {
				rec = append(rec, s.Data...)
			}
			binary.LittleEndian.PutUint32(rec[dataAt:], uint32(len(rec)-dataAt-4))
			binary.LittleEndian.PutUint64(rec[recordOverhead:], lsn)
			binary.LittleEndian.PutUint32(rec, uint32(len(rec)-recordOverhead))
			binary.LittleEndian.PutUint32(rec[4:], Checksum(rec[recordOverhead:]))
			if _, err := w.Write(rec); err != nil {
				return err
			}
			written++
		}
		return w.Flush()
	})
	return written, err
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
