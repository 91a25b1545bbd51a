package durable

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures a Manager. Zero values take the documented
// defaults.
type Options struct {
	// FsyncInterval is the group-commit policy: > 0 fsyncs the WAL on
	// that period (bounded data-loss window, highest throughput); 0
	// fsyncs after every drained batch of records (per-batch commit);
	// < 0 never fsyncs explicitly (the OS page cache decides — fastest,
	// survives process crashes but not power loss).
	FsyncInterval time.Duration
	// SnapshotInterval is the period between automatic snapshots
	// (each snapshot truncates the WAL at its cut LSN). <= 0 disables
	// timed snapshots; the WAL size trigger and final shutdown
	// snapshot still apply.
	SnapshotInterval time.Duration
	// WALMaxBytes triggers a snapshot (and thus WAL truncation) when
	// the active segment exceeds this size. Default 64 MiB.
	WALMaxBytes int64
	// Logf receives operational log lines. Default: discard.
	Logf func(format string, args ...any)
}

const (
	// maxBatchBytes commits early once this many unsynced bytes have
	// accumulated, regardless of the interval.
	maxBatchBytes = 1 << 20
	// queueDepth bounds the append queue between request handlers and
	// the syncer. A full queue applies backpressure to writers rather
	// than dropping records.
	queueDepth = 4096
)

// syncFile fsyncs a WAL segment; a variable so a test can fail it.
var syncFile = (*os.File).Sync

func (o *Options) applyDefaults() {
	if o.WALMaxBytes == 0 {
		o.WALMaxBytes = 64 << 20
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// Status is the durability block surfaced on GET /v1/status.
type Status struct {
	Enabled         bool   `json:"enabled"`
	WALLSN          uint64 `json:"wal_lsn"`
	LastSnapshotLSN uint64 `json:"last_snapshot_lsn"`
	WALBytes        int64  `json:"wal_bytes"`
	LastFsyncAgeMS  int64  `json:"last_fsync_age_ms"`
	// FsyncError is the first WAL fsync that failed: from then on the
	// barriers report it, since a later fsync that succeeds covers only
	// the pages the kernel still held.
	FsyncError string `json:"fsync_error,omitempty"`
}

// RecoveryStats summarizes what Recover did.
type RecoveryStats struct {
	SnapshotLSN     uint64
	SketchesLoaded  int
	SketchesSkipped int
	RecordsReplayed int
	TornSegments    int
}

// RecoveryHandler receives the recovered state: Begin is called once
// with the snapshot cut LSN (0 if no snapshot), then RestoreSketch per
// snapshot row, then Replay per WAL record in LSN order. Handler
// errors are logged and the offending row/record skipped — recovery is
// never fatal.
type RecoveryHandler interface {
	Begin(snapLSN uint64) error
	RestoreSketch(s SketchSnap) error
	Replay(r Record) error
}

// Manager owns one data directory: the append queue, the background
// syncer that group-commits the WAL, the snapshot store, and recovery.
//
// Lifecycle: Open → Recover → Start → (Append | Sync | SnapshotNow)* →
// Close. Close flushes the queue, fsyncs, writes a final snapshot, and
// stops the syncer.
type Manager struct {
	dir  string
	opts Options

	lsn atomic.Uint64
	mu  sync.Mutex // orders LSN assignment with queue insertion

	ch      chan Record
	syncReq chan chan error
	snapReq chan chan error
	sealReq chan chan error
	quit    chan struct{}
	kill    atomic.Bool
	wg      sync.WaitGroup

	capture func() []SketchSnap

	// syncer-owned state (no locking: single goroutine)
	fsyncC      <-chan time.Time // the group-commit tick; nil unless FsyncInterval > 0
	fsyncing    chan error       // the fsync in flight; nil when none is
	fsyncStart  time.Time        // when the fsync in flight was started
	f           *os.File
	w           *bufio.Writer
	seq         uint64
	unsynced    int
	dirty       bool
	encBuf      []byte
	activeBytes int64

	// status atomics
	snapLSN   atomic.Uint64
	walBytes  atomic.Int64
	lastFsync atomic.Int64  // unixnano; 0 until the first commit
	activeSeq atomic.Uint64 // seq of the segment currently being written
	fsyncErr  atomic.Pointer[error]
	closeErr  error // the final commit's, for Close
}

// Open prepares a manager over dir (created if absent). No files are
// touched beyond the mkdir; call Recover then Start.
func Open(dir string, opts Options) (*Manager, error) {
	opts.applyDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Manager{
		dir:     dir,
		opts:    opts,
		ch:      make(chan Record, queueDepth),
		syncReq: make(chan chan error, 1),
		snapReq: make(chan chan error, 1),
		sealReq: make(chan chan error, 1),
		quit:    make(chan struct{}),
		seq:     1,
	}, nil
}

// Recover loads the latest valid snapshot and replays the WAL tail
// into h. Torn or corrupt tails are truncated to the last valid
// record; segments past a damaged one are deleted so the log keeps a
// single timeline, and so are temp files a crash left mid-commit.
// Must be called before Start.
func (m *Manager) Recover(h RecoveryHandler) (RecoveryStats, error) {
	logf := m.opts.Logf
	var stats RecoveryStats

	removeOrphanedTemps(m.dir, logf)
	snaps, snapLSN, ok := loadLatestSnapshot(m.dir, logf)
	if !ok {
		snapLSN = 0
	}
	stats.SnapshotLSN = snapLSN
	if err := h.Begin(snapLSN); err != nil {
		return stats, err
	}
	for _, s := range snaps {
		if err := h.RestoreSketch(s); err != nil {
			logf("durable: skipping sketch %q from snapshot: %v", s.Name, err)
			stats.SketchesSkipped++
			continue
		}
		stats.SketchesLoaded++
	}

	last := uint64(0)
	segments := listByPrefixAsc(m.dir, "wal-", ".log")
	damagedAt := -1
	for i, name := range segments {
		path := filepath.Join(m.dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			logf("durable: segment %s unreadable: %v", name, err)
			damagedAt = i
			break
		}
		consumed, lastOut, err := ReplayLog(data, last, func(rec Record) error {
			if err := h.Replay(rec); err != nil {
				logf("durable: skipping record lsn=%d op=%d %q: %v", rec.LSN, rec.Op, rec.Name, err)
			} else {
				stats.RecordsReplayed++
			}
			return nil
		})
		last = lastOut
		if err != nil {
			// Unreadable header: nothing in this segment is trusted.
			logf("durable: segment %s: %v", name, err)
			damagedAt = i
			break
		}
		if consumed < len(data) {
			// Torn or corrupt tail: truncate the file to the valid
			// prefix so future recoveries read it cleanly.
			logf("durable: segment %s: truncating %d damaged tail bytes at offset %d",
				name, len(data)-consumed, consumed)
			stats.TornSegments++
			if err := os.Truncate(path, int64(consumed)); err != nil {
				logf("durable: truncate %s: %v", name, err)
			}
			damagedAt = i + 1 // this segment's prefix is good; later ones are not
			break
		}
		m.seq = walSeqFromName(name) + 1
	}
	if damagedAt >= 0 {
		// Segments past the damage point are from a dead timeline — new
		// appends reuse their LSN range. Delete them so the next
		// recovery cannot interleave the two.
		for i := damagedAt; i < len(segments); i++ {
			logf("durable: dropping post-damage segment %s", segments[i])
			os.Remove(filepath.Join(m.dir, segments[i]))
		}
		if damagedAt > 0 {
			m.seq = walSeqFromName(segments[damagedAt-1]) + 1
		}
	}

	if last < snapLSN {
		last = snapLSN
	}
	m.lsn.Store(last)
	m.snapLSN.Store(snapLSN)
	logf("durable: recovered %d sketches (snapshot lsn %d), replayed %d records, lsn now %d",
		stats.SketchesLoaded, snapLSN, stats.RecordsReplayed, last)
	return stats, nil
}

// Start opens a fresh WAL segment and launches the background syncer.
// capture lists the rows of a snapshot cut: each row's Stream writes
// its sketch's envelope and LSN consistently (under the sketch's lock)
// when the cut reaches that row, straight into the file, so the cut
// holds no envelope. capture and every Stream run on a snapshot
// goroutine while the syncer keeps taking appends and committing them,
// so they may block on per-sketch locks without deadlocking writers.
func (m *Manager) Start(capture func() []SketchSnap) error {
	m.capture = capture
	if err := m.openSegment(); err != nil {
		return err
	}
	m.wg.Add(1)
	go m.run()
	return nil
}

// Append copies the record body, assigns the next LSN, and enqueues it
// for the syncer; it blocks only when the queue is full (backpressure,
// never loss). Returns the assigned LSN. An empty tenant means the
// default namespace. Callers serialize Append with the in-memory apply
// of the same sketch (per-entry lock) so per-sketch WAL order matches
// apply order.
func (m *Manager) Append(op byte, tenant, name string, body []byte) uint64 {
	rec := Record{Op: op, Tenant: tenant, Name: name}
	if len(body) > 0 {
		rec.Body = append(make([]byte, 0, len(body)), body...)
	}
	m.mu.Lock()
	rec.LSN = m.lsn.Add(1)
	m.ch <- rec
	m.mu.Unlock()
	return rec.LSN
}

// Sync blocks until every record appended before the call is written
// and fsynced — a durability barrier for tests and callers that need
// commit confirmation.
func (m *Manager) Sync() error {
	done := make(chan error, 1)
	select {
	case m.syncReq <- done:
		return <-done
	case <-m.quit:
		return fmt.Errorf("durable: manager closed")
	}
}

// SnapshotNow takes a snapshot immediately and truncates the WAL.
func (m *Manager) SnapshotNow() error {
	done := make(chan error, 1)
	select {
	case m.snapReq <- done:
		return <-done
	case <-m.quit:
		return fmt.Errorf("durable: manager closed")
	}
}

// SealActive drains the append queue, commits, and rotates the active
// WAL segment so every record appended before the call lives in a
// sealed (immutable, shippable) segment. A segment holding no records
// is not rotated — sealing an idle log is a no-op, so a replication
// follower can poll it freely without growing the segment count.
func (m *Manager) SealActive() error {
	done := make(chan error, 1)
	select {
	case m.sealReq <- done:
		return <-done
	case <-m.quit:
		return fmt.Errorf("durable: manager closed")
	}
}

// Close drains the queue, fsyncs the WAL, writes a final snapshot, and
// stops the syncer; it returns the final commit's error. The HTTP layer
// must stop producing appends first.
func (m *Manager) Close() error {
	close(m.quit)
	m.wg.Wait()
	return m.closeErr
}

// Kill stops the syncer abruptly: no drain, no flush, no final
// snapshot — records still buffered in the queue or the bufio layer
// are lost, exactly as in a kill -9. Test hook for crash-recovery
// coverage.
func (m *Manager) Kill() {
	m.kill.Store(true)
	close(m.quit)
	m.wg.Wait()
}

// Status reports the durability gauges.
func (m *Manager) Status() Status {
	s := Status{
		Enabled:         true,
		WALLSN:          m.lsn.Load(),
		LastSnapshotLSN: m.snapLSN.Load(),
		WALBytes:        m.walBytes.Load(),
		LastFsyncAgeMS:  -1,
	}
	if t := m.lastFsync.Load(); t != 0 {
		s.LastFsyncAgeMS = time.Since(time.Unix(0, t)).Milliseconds()
	}
	if err := m.failed(); err != nil {
		s.FsyncError = err.Error()
	}
	return s
}

// failed returns the first WAL fsync error, nil while none has failed.
func (m *Manager) failed() error {
	if err := m.fsyncErr.Load(); err != nil {
		return *err
	}
	return nil
}

// --- syncer ---

func (m *Manager) run() {
	defer m.wg.Done()
	var snapC <-chan time.Time
	if m.opts.FsyncInterval > 0 {
		t := time.NewTicker(m.opts.FsyncInterval)
		defer t.Stop()
		m.fsyncC = t.C
	}
	if m.opts.SnapshotInterval > 0 {
		t := time.NewTicker(m.opts.SnapshotInterval)
		defer t.Stop()
		snapC = t.C
	}
	for {
		select {
		case rec := <-m.ch:
			m.take(rec)
			if m.activeBytes > m.opts.WALMaxBytes {
				if err := m.doSnapshot(); err != nil {
					m.opts.Logf("durable: size-triggered snapshot: %v", err)
				}
			}
		case <-m.fsyncC:
			m.startCommit()
		case err := <-m.fsyncing:
			m.fsyncEnded(err)
		case <-snapC:
			if err := m.doSnapshot(); err != nil {
				m.opts.Logf("durable: timed snapshot: %v", err)
			}
		case done := <-m.syncReq:
			m.drainQueue()
			done <- m.commit()
		case done := <-m.snapReq:
			m.drainQueue()
			done <- m.doSnapshot()
		case done := <-m.sealReq:
			m.drainQueue()
			done <- m.sealActive()
		case <-m.quit:
			if m.kill.Load() {
				// Simulated kill -9: drop buffered data on the floor (an
				// fsync in flight ends on the closed file).
				m.f.Close()
				return
			}
			m.drainQueue()
			if m.closeErr = m.commit(); m.closeErr != nil {
				m.opts.Logf("durable: final commit: %v", m.closeErr)
			}
			if err := m.doSnapshot(); err != nil {
				m.opts.Logf("durable: final snapshot: %v", err)
			}
			if err := m.seal(); err != nil {
				m.opts.Logf("durable: closing the WAL: %v", err)
			}
			return
		}
	}
}

// take writes rec and whatever else is queued, then starts a commit if
// one is due.
func (m *Manager) take(rec Record) {
	m.writeRecord(rec)
	m.drainQueue()
	m.commitIfDue()
}

// drainQueue moves every queued record to the writer without blocking.
func (m *Manager) drainQueue() {
	for {
		select {
		case rec := <-m.ch:
			m.writeRecord(rec)
		default:
			return
		}
	}
}

func (m *Manager) writeRecord(rec Record) {
	m.encBuf = AppendRecord(m.encBuf[:0], rec)
	if _, err := m.w.Write(m.encBuf); err != nil {
		m.opts.Logf("durable: WAL write (lsn %d): %v", rec.LSN, err)
		return
	}
	m.unsynced += len(m.encBuf)
	m.activeBytes += int64(len(m.encBuf))
	m.walBytes.Store(m.activeBytes)
	m.dirty = true
}

// commitIfDue is the group-commit policy after a write burst: commit
// every batch (FsyncInterval 0), or once maxBatchBytes are unsynced.
// The FsyncInterval tick commits the rest.
func (m *Manager) commitIfDue() {
	if m.opts.FsyncInterval == 0 || m.unsynced >= maxBatchBytes {
		m.startCommit()
	}
}

// startCommit is the one way records are committed: it flushes the
// buffered records to the OS and starts their fsync on a goroutine of
// its own, unless fsync is disabled (FsyncInterval < 0). The syncer
// does not wait for that fsync but goes on taking appends, which count
// toward the next commit; that one starts when the fsync in flight has
// ended (endFsync). An fsync waits on whatever else the filesystem is
// committing — a snapshot file, an unlink that discards a 64 MiB
// segment — and a syncer that waited with it would leave the appends
// queueing in memory.
func (m *Manager) startCommit() error {
	if m.fsyncing != nil || !m.dirty {
		return nil
	}
	start := time.Now()
	if err := m.w.Flush(); err != nil {
		m.opts.Logf("durable: WAL flush: %v", err)
		return err
	}
	m.dirty = false
	m.unsynced = 0
	if m.opts.FsyncInterval < 0 {
		m.lastFsync.Store(start.UnixNano())
		return nil
	}
	done := make(chan error, 1)
	m.fsyncing, m.fsyncStart = done, start
	go func(f *os.File) { done <- syncFile(f) }(m.f)
	return nil
}

// endFsync records the outcome of the fsync in flight: everything
// flushed before it started is on disk, or, if it failed, still to be
// committed — and the first failure is kept for the barriers.
func (m *Manager) endFsync(err error) error {
	m.fsyncing = nil
	if err != nil {
		m.opts.Logf("durable: WAL fsync: %v", err)
		m.fsyncErr.CompareAndSwap(nil, &err)
		m.dirty = true
		return err
	}
	m.lastFsync.Store(m.fsyncStart.UnixNano())
	return nil
}

// fsyncEnded takes the outcome of the fsync in flight and starts the
// next commit if one is due. After a failure the next record or tick
// retries, so a failing disk is not fsynced in a loop.
func (m *Manager) fsyncEnded(err error) {
	if m.endFsync(err) == nil {
		m.commitIfDue()
	}
}

// settle waits for the fsync in flight, if one is.
func (m *Manager) settle() error {
	if m.fsyncing == nil {
		return nil
	}
	return m.endFsync(<-m.fsyncing)
}

// commit is a barrier: it returns once every record written so far is
// flushed and, unless FsyncInterval < 0, fsynced. Once a WAL fsync has
// failed it returns that error for good: the records it covered may be
// gone from the page cache, and a retry that succeeds cannot tell.
func (m *Manager) commit() error {
	m.settle()
	if err := m.startCommit(); err != nil {
		return err
	}
	m.settle()
	return m.failed()
}

// openSegment creates the next WAL segment and makes it the active
// write target.
func (m *Manager) openSegment() error {
	name := walFileName(m.seq)
	f, err := os.OpenFile(filepath.Join(m.dir, name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	header := WALHeader()
	if _, err := f.Write(header); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(m.dir); err != nil {
		f.Close()
		return err
	}
	m.f = f
	if m.w == nil {
		m.w = bufio.NewWriterSize(f, 256<<10)
	} else {
		m.w.Reset(f) // a rotation keeps the buffer: a cut allocates none
	}
	m.activeBytes = int64(len(header))
	m.walBytes.Store(m.activeBytes)
	m.unsynced = 0
	m.dirty = false
	m.activeSeq.Store(m.seq)
	return nil
}

// seal makes the active segment durable and closes it (syncer goroutine
// only): flush, fsync — whatever FsyncInterval says, a sealed segment is
// on disk — and close. It stops at the first error, so a segment that
// could not be flushed or fsynced is still the open, active one.
func (m *Manager) seal() error {
	m.settle() // the file is fsynced and closed below
	if err := m.w.Flush(); err != nil {
		return fmt.Errorf("durable: WAL flush: %w", err)
	}
	if err := syncFile(m.f); err != nil {
		m.fsyncErr.CompareAndSwap(nil, &err)
		return fmt.Errorf("durable: WAL fsync: %w", err)
	}
	if err := m.f.Close(); err != nil {
		return fmt.Errorf("durable: WAL close: %w", err)
	}
	return nil
}

// rotate seals the active segment and opens the next one. It is the
// one place a segment boundary is made: SealActive's, a snapshot's cut.
func (m *Manager) rotate() error {
	if err := m.commit(); err != nil {
		return err
	}
	if err := m.seal(); err != nil {
		return err
	}
	m.seq++
	if err := m.openSegment(); err != nil {
		return fmt.Errorf("durable: opening WAL segment %d: %w", m.seq, err)
	}
	return nil
}

// sealActive rotates the active segment (syncer goroutine only) unless
// it holds no records.
func (m *Manager) sealActive() error {
	if m.activeBytes <= int64(walHeaderLen) {
		return m.failed() // no records since the last rotation: nothing to seal
	}
	return m.rotate()
}

// doSnapshot is the snapshot + WAL-truncation protocol, run on the
// syncer goroutine:
//
//  1. flush+fsync and rotate to a fresh segment — every record already
//     written lands before the cut;
//  2. read the cut LSN;
//  3. on a helper goroutine, stream every live sketch's row into the
//     snapshot file, one row at a time, and commit the file (atomic
//     rename);
//  4. on the helper, commit the manifest (atomic rename);
//  5. on the helper, delete WAL segments before the rotation and
//     snapshots older than the previous one.
//
// While the helper runs, this goroutine keeps taking appends and
// committing them as it always does (startCommit) — on its fsync tick
// and its early commit — so writers blocked on per-sketch locks the
// helper needs can finish their Append, and neither a row that holds
// its sketch's lock while it streams nor an unlink that takes seconds
// stalls the log. doSnapshot returns once the old files are gone.
//
// Every record with LSN <= the cut is subsumed: it was applied to its
// sketch before that sketch was captured (apply and Append share the
// per-sketch lock), so replay skips it via the per-sketch LastLSN,
// and creates/deletes at or below the cut are skipped wholesale.
func (m *Manager) doSnapshot() error {
	if m.capture == nil {
		return nil
	}
	oldSeq := m.seq
	if err := m.rotate(); err != nil {
		return err
	}
	cut := m.lsn.Load()
	done := make(chan error, 1)
	go func() { done <- m.cutSnapshot(cut, oldSeq) }()
	for {
		select {
		case err := <-done:
			return err
		case rec := <-m.ch:
			m.take(rec)
		case <-m.fsyncC:
			m.startCommit()
		case err := <-m.fsyncing:
			m.fsyncEnded(err)
		}
	}
}

// cutSnapshot is doSnapshot's helper: steps 3 to 5 for the cut at LSN
// cut, made after segment oldSeq was sealed. It touches no syncer state.
func (m *Manager) cutSnapshot(cut, oldSeq uint64) error {
	name := snapFileName(cut)
	rows, err := writeSnapshot(m.dir, name, m.capture())
	if err != nil {
		return fmt.Errorf("durable: writing snapshot: %w", err)
	}
	if err := writeManifest(m.dir, manifest{Version: 1, Snapshot: name, LSN: cut}); err != nil {
		return fmt.Errorf("durable: writing manifest: %w", err)
	}
	m.snapLSN.Store(cut)

	// Truncate the log: segments from before the rotation are fully
	// subsumed by the snapshot.
	for _, seg := range listByPrefixAsc(m.dir, "wal-", ".log") {
		if walSeqFromName(seg) <= oldSeq {
			os.Remove(filepath.Join(m.dir, seg))
		}
	}
	// Retire old snapshots, keeping one fallback behind the current.
	snapFiles := listByPrefixDesc(m.dir, "snap-", ".snap")
	for i, sf := range snapFiles {
		if i >= 2 {
			os.Remove(filepath.Join(m.dir, sf))
		}
	}
	// Commit the removals here: on a filesystem that discards freed
	// blocks, that journal commit can take seconds, and the syncer's
	// next fsync would otherwise be the one to wait for it.
	if err := syncDir(m.dir); err != nil {
		m.opts.Logf("durable: syncing %s after removals: %v", m.dir, err)
	}
	m.opts.Logf("durable: snapshot %s committed (%d sketches, cut lsn %d)", name, rows, cut)
	return nil
}
