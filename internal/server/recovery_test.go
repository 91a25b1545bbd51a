package server

// Crash-recovery tests: a sketchd with durability enabled is killed
// without ceremony (no final snapshot, syncer stopped cold) and a
// fresh server over the same data directory must serve every sketch
// with byte-identical snapshots — across one family per capability
// group, through snapshot+WAL-tail recovery, torn tails, bit flips,
// and delete/recreate sequences.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/durable"
)

// recoveryFamilies covers one servable family per capability group,
// with a family-appropriate batch per ingest round.
var recoveryFamilies = []struct {
	typ   string // registry name
	batch func(round int) string
}{
	{"hll", func(r int) string { return fmt.Sprintf("user-%d-a\nuser-%d-b\nuser-%d-c", r, r, r) }}, // cardinality
	{"countmin", func(r int) string { return fmt.Sprintf("hot\t3\ncold-%d", r) }},                  // frequency
	{"bloom", func(r int) string { return fmt.Sprintf("member-%d\nmember-%d-x", r, r) }},           // membership
	{"kll", func(r int) string { return fmt.Sprintf("%d.5\n%d.25", r, r+10) }},                     // quantile
	{"reservoir", func(r int) string { return fmt.Sprintf("sample-%d\nsample-%d-y", r, r) }},       // sample
	{"theta", func(r int) string { return fmt.Sprintf("theta-%d-a\ntheta-%d-b", r, r) }},           // cardinality, set algebra
	{"spacesaving", func(r int) string { return fmt.Sprintf("heavy\t5\nlight-%d", r) }},            // frequency, heavy hitters
	{"sfsketch", func(r int) string { return fmt.Sprintf("hot\t4\nwarm-%d\t2\ncool-%d", r, r) }},   // frequency, two-stage wire form
}

// durableServer recovers s from dir and serves it; s is a new server
// when nil.
func durableServer(t *testing.T, s *Server, dir string, opts durable.Options) (*Server, served, durable.RecoveryStats) {
	t.Helper()
	if s == nil {
		s = New()
	}
	stats, err := s.EnableDurability(dir, opts)
	if err != nil {
		t.Fatalf("EnableDurability(%s): %v", dir, err)
	}
	return s, serveLoop(t, s.Handler(), nil), stats
}

// reply is what a request sent with do got back.
type reply struct {
	req    string // its method and URL
	code   int
	header http.Header
	body   []byte
}

// do sends method url with body and returns the reply, its body read:
// this package's one way to make a request by hand.
func do(t *testing.T, method, url, body string) reply {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return reply{method + " " + url, resp.StatusCode, resp.Header, data}
}

// ok is the reply's body; a status outside 2xx fails the test.
func (r reply) ok(t *testing.T) []byte {
	t.Helper()
	if r.code/100 != 2 {
		t.Fatalf("%s: HTTP %d: %s", r.req, r.code, r.body)
	}
	return r.body
}

// snapshotAll fetches every recovery family's serialized envelope and
// summary query document.
func snapshotAll(t *testing.T, base string) (snaps map[string][]byte, queries map[string][]byte) {
	t.Helper()
	snaps, queries = map[string][]byte{}, map[string][]byte{}
	for _, f := range recoveryFamilies {
		snaps[f.typ] = do(t, "GET", base+"/v1/sketch/dur-"+f.typ+"/snapshot", "").ok(t)
		queries[f.typ] = do(t, "GET", base+"/v1/sketch/dur-"+f.typ+"/query", "").ok(t)
	}
	return snaps, queries
}

func TestCrashRecoveryAcrossFamilies(t *testing.T) {
	dir := t.TempDir()
	s1, ts1, _ := durableServer(t, nil, dir, durable.Options{FsyncInterval: 0})

	for _, f := range recoveryFamilies {
		do(t, "POST", ts1.URL+"/v1/sketch/dur-"+f.typ, fmt.Sprintf(`{"type":%q}`, f.typ)).ok(t)
		do(t, "POST", ts1.URL+"/v1/sketch/dur-"+f.typ+"/add", f.batch(0)).ok(t)
	}
	// Snapshot mid-stream so recovery exercises snapshot + WAL tail,
	// not the WAL alone.
	if err := s1.dur.SnapshotNow(); err != nil {
		t.Fatalf("SnapshotNow: %v", err)
	}
	for round := 1; round <= 3; round++ {
		for _, f := range recoveryFamilies {
			do(t, "POST", ts1.URL+"/v1/sketch/dur-"+f.typ+"/add", f.batch(round)).ok(t)
		}
	}
	wantSnaps, wantQueries := snapshotAll(t, ts1.URL)

	// Unclean stop: barrier the WAL to disk, then kill the syncer cold
	// (no drain, no final snapshot) and abandon the server.
	if err := s1.dur.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	ts1.Close()
	s1.dur.Kill()

	s2, ts2, stats := durableServer(t, nil, dir, durable.Options{FsyncInterval: 0})
	if stats.SketchesLoaded != len(recoveryFamilies) {
		t.Fatalf("recovered %d sketches from snapshot, want %d (stats %+v)",
			stats.SketchesLoaded, len(recoveryFamilies), stats)
	}
	if stats.RecordsReplayed != 3*len(recoveryFamilies) {
		t.Fatalf("replayed %d WAL records, want %d (stats %+v)",
			stats.RecordsReplayed, 3*len(recoveryFamilies), stats)
	}
	gotSnaps, gotQueries := snapshotAll(t, ts2.URL)
	for _, f := range recoveryFamilies {
		if !bytes.Equal(gotSnaps[f.typ], wantSnaps[f.typ]) {
			t.Errorf("%s: recovered snapshot differs (%d bytes vs %d)",
				f.typ, len(gotSnaps[f.typ]), len(wantSnaps[f.typ]))
		}
		if !bytes.Equal(gotQueries[f.typ], wantQueries[f.typ]) {
			t.Errorf("%s: recovered query differs:\n  got  %s\n  want %s",
				f.typ, gotQueries[f.typ], wantQueries[f.typ])
		}
	}

	// The recovered server keeps working: new ingest, then a clean
	// shutdown whose final snapshot alone must carry the state.
	for _, f := range recoveryFamilies {
		do(t, "POST", ts2.URL+"/v1/sketch/dur-"+f.typ+"/add", f.batch(4)).ok(t)
	}
	wantSnaps, _ = snapshotAll(t, ts2.URL)
	ts2.Close()
	if err := s2.CloseDurability(); err != nil {
		t.Fatalf("CloseDurability: %v", err)
	}

	_, ts3, stats3 := durableServer(t, nil, dir, durable.Options{FsyncInterval: 0})
	if stats3.RecordsReplayed != 0 {
		t.Fatalf("after clean shutdown, replayed %d records, want 0 (final snapshot covers all)",
			stats3.RecordsReplayed)
	}
	gotSnaps, _ = snapshotAll(t, ts3.URL)
	for _, f := range recoveryFamilies {
		if !bytes.Equal(gotSnaps[f.typ], wantSnaps[f.typ]) {
			t.Errorf("%s: post-clean-shutdown snapshot differs", f.typ)
		}
	}
}

// TestSnapshotCutUnderIngestRecoversExactly takes cuts while writers
// ingest. A cut streams each row's bytes and LSN together, under the
// sketch's WAL lock, so the snapshot plus the WAL after it rebuild every
// sketch exactly — for every family whose tables stream as their own
// words (countmin, countsketch, sfsketch, bloom, blockedbloom, hll) and
// for the families that hand the cut one envelope. Exactly means
// byte-identical, except for the two
// families whose envelope leaves out their generator (kll's compactor
// coins, reservoir's replacement draws): a restored one draws a new
// random stream from its seed, so there the check is that it holds
// exactly the items the live one saw, n, which a row paired with the
// wrong LSN would double or drop.
func TestSnapshotCutUnderIngestRecoversExactly(t *testing.T) {
	dir := t.TempDir()
	s1, ts1, _ := durableServer(t, nil, dir, durable.Options{FsyncInterval: 0})
	batches := map[string]func(int) string{
		"blockedbloom": func(r int) string { return fmt.Sprintf("member-%d\nmember-%d-x", r, r) },
		"countsketch":  func(r int) string { return fmt.Sprintf("hot\t3\ncold-%d\t-1", r) },
	}
	for _, f := range recoveryFamilies {
		batches[f.typ] = f.batch
	}
	for typ := range batches {
		do(t, "POST", ts1.URL+"/v1/sketch/cut-"+typ, fmt.Sprintf(`{"type":%q}`, typ)).ok(t)
	}

	const writers = 4
	var requests atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; ; r++ {
				for typ, batch := range batches {
					select {
					case <-stop:
						return
					default:
					}
					resp, err := http.Post(ts1.URL+"/v1/sketch/cut-"+typ+"/add", "text/plain", strings.NewReader(batch(w*100000+r)))
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode/100 != 2 {
						t.Errorf("add to cut-%s: HTTP %d", typ, resp.StatusCode)
						return
					}
					requests.Add(1)
				}
			}
		}()
	}
	// Every cut starts only once the writers have moved on since the last.
	awaitIngest := func() {
		for n := requests.Load(); requests.Load() < n+2*writers && !t.Failed(); {
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < 3; i++ {
		awaitIngest()
		if err := s1.dur.SnapshotNow(); err != nil {
			t.Errorf("SnapshotNow %d: %v", i, err)
		}
	}
	awaitIngest()
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	want := map[string][]byte{}
	for typ := range batches {
		want[typ] = do(t, "GET", ts1.URL+"/v1/sketch/cut-"+typ+"/snapshot", "").ok(t)
	}
	wantN := map[string]uint64{}
	for _, typ := range []string{"kll", "reservoir"} {
		wantN[typ] = queryN(t, ts1.URL+"/v1/sketch/cut-"+typ)
	}
	if err := s1.dur.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	ts1.Close()
	s1.dur.Kill()

	_, ts2, stats := durableServer(t, nil, dir, durable.Options{FsyncInterval: 0})
	if stats.SketchesLoaded != len(batches) {
		t.Fatalf("recovered %d sketches from the snapshot, want %d (stats %+v)", stats.SketchesLoaded, len(batches), stats)
	}
	for typ := range batches {
		if _, drawn := wantN[typ]; drawn {
			continue
		}
		if got := do(t, "GET", ts2.URL+"/v1/sketch/cut-"+typ+"/snapshot", "").ok(t); !bytes.Equal(got, want[typ]) {
			t.Errorf("%s: recovered snapshot differs (%d bytes vs %d)", typ, len(got), len(want[typ]))
		}
	}
	for typ, live := range wantN {
		if got := queryN(t, ts2.URL+"/v1/sketch/cut-"+typ); got != live {
			t.Errorf("%s: recovered n = %d, live n = %d", typ, got, live)
		}
	}
}

// queryN reads n, the items a sketch has seen, from its summary query.
func queryN(t *testing.T, sketchURL string) uint64 {
	t.Helper()
	var doc struct {
		N uint64 `json:"n"`
	}
	if err := json.Unmarshal(do(t, "GET", sketchURL+"/query", "").ok(t), &doc); err != nil {
		t.Fatal(err)
	}
	return doc.N
}

// TestSnapshotCutHoldsOneEnvelope: a cut captures each row as it writes
// it, into one record buffer reused across rows, so it allocates about
// one envelope however many sketches there are — not every envelope
// and then a copy of the whole file.
func TestSnapshotCutHoldsOneEnvelope(t *testing.T) {
	s1, ts1, _ := durableServer(t, nil, t.TempDir(), durable.Options{FsyncInterval: 0})
	for i := 0; i < 4; i++ {
		url := fmt.Sprintf("%s/v1/sketch/cm-%d", ts1.URL, i)
		do(t, "POST", url, `{"type":"countmin","width":65536,"depth":4}`).ok(t)
		do(t, "POST", url+"/add", "hot\t3\ncold").ok(t)
	}
	envelope := len(do(t, "GET", ts1.URL+"/v1/sketch/cm-0/snapshot", "").ok(t))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := s1.dur.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*envelope+1<<20); alloc >= limit {
		t.Fatalf("a cut over four %d-byte envelopes allocated %d bytes, want < %d", envelope, alloc, limit)
	}
}

// TestSnapshotCutAllocatesNoEnvelope: a cut streams each row from the
// sketch's own words into the file, so however large the sketches, it
// allocates only its write buffer and bookkeeping — here under 256 KB
// for four 2 MB Count-Min rows, a 4.8 MB blocked Bloom filter and a
// full SF-sketch.
func TestSnapshotCutAllocatesNoEnvelope(t *testing.T) {
	s1, ts1, _ := durableServer(t, nil, t.TempDir(), durable.Options{FsyncInterval: 0})
	creates := map[string]string{
		"bb": `{"type":"blockedbloom","n":4000000,"fpr":0.01}`,
		"sf": `{"type":"sfsketch"}`,
	}
	for i := 0; i < 4; i++ {
		creates[fmt.Sprintf("cm-%d", i)] = `{"type":"countmin","width":65536,"depth":4}`
	}
	total := 0
	for name, req := range creates {
		url := ts1.URL + "/v1/sketch/" + name
		do(t, "POST", url, req).ok(t)
		do(t, "POST", url+"/add", "hot\t3\ncold").ok(t)
		total += len(do(t, "GET", url+"/snapshot", "").ok(t))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := s1.dur.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	if alloc >= 256<<10 {
		t.Fatalf("a cut over %d envelope bytes allocated %d bytes, want < %d", total, alloc, 256<<10)
	}
	t.Logf("a cut over %d envelope bytes allocated %d bytes", total, alloc)
}

// activeWAL returns the newest WAL segment in dir.
func activeWAL(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no WAL segments in %s (err %v)", dir, err)
	}
	sort.Strings(matches)
	return matches[len(matches)-1]
}

// countAfterDamage ingests `batches` single-item batches of "x" into a
// countmin, kills the server, applies damage to the WAL file, recovers,
// and returns the recovered count of "x".
func countAfterDamage(t *testing.T, batches int, damage func(path string, data []byte)) uint64 {
	t.Helper()
	dir := t.TempDir()
	s1, ts1, _ := durableServer(t, nil, dir, durable.Options{FsyncInterval: 0})
	do(t, "POST", ts1.URL+"/v1/sketch/cm", `{"type":"countmin"}`).ok(t)
	for i := 0; i < batches; i++ {
		do(t, "POST", ts1.URL+"/v1/sketch/cm/add", "x").ok(t)
	}
	if err := s1.dur.Sync(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	s1.dur.Kill()

	path := activeWAL(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damage(path, data)

	_, ts2, _ := durableServer(t, nil, dir, durable.Options{FsyncInterval: 0})
	var doc struct {
		Estimate uint64 `json:"estimate"`
	}
	if err := json.Unmarshal(do(t, "GET", ts2.URL+"/v1/sketch/cm/query?item=x", "").ok(t), &doc); err != nil {
		t.Fatal(err)
	}
	return doc.Estimate
}

// ingestRecordLen is the on-wire size of one "x"-batch ingest record
// for the sketch named "cm" in the default tenant: framing (8) +
// lsn (8) + op (1) + name (4+2) + tenant (4+0, default is empty) +
// body (4+1).
const ingestRecordLen = 8 + 8 + 1 + 4 + 2 + 4 + 0 + 4 + 1

func TestRecoveryTornTail(t *testing.T) {
	// Torn mid-record write: the file ends 4 bytes short of the last
	// record. Recovery must serve everything up to the tear.
	got := countAfterDamage(t, 5, func(path string, data []byte) {
		if err := os.WriteFile(path, data[:len(data)-4], 0o644); err != nil {
			t.Fatal(err)
		}
	})
	if got != 4 {
		t.Fatalf("after torn tail: count(x) = %d, want 4", got)
	}

	// Trailing garbage after the last record: nothing valid is lost.
	got = countAfterDamage(t, 5, func(path string, data []byte) {
		if err := os.WriteFile(path, append(data, "partial-write-garbage"...), 0o644); err != nil {
			t.Fatal(err)
		}
	})
	if got != 5 {
		t.Fatalf("after trailing garbage: count(x) = %d, want 5", got)
	}
}

func TestRecoveryBitFlip(t *testing.T) {
	flipAt := func(back int) func(string, []byte) {
		return func(path string, data []byte) {
			data[len(data)-back] ^= 0x08
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Flip inside the last record: recovery stops one record short.
	if got := countAfterDamage(t, 5, flipAt(1)); got != 4 {
		t.Fatalf("bit flip in last record: count(x) = %d, want 4", got)
	}
	// Flip inside the second-to-last record: everything from the flip
	// on is untrusted — recover to the last valid LSN, not past it.
	if got := countAfterDamage(t, 5, flipAt(ingestRecordLen+1)); got != 3 {
		t.Fatalf("bit flip in second-to-last record: count(x) = %d, want 3", got)
	}
}

func TestRecoveryDeleteRecreate(t *testing.T) {
	dir := t.TempDir()
	s1, ts1, _ := durableServer(t, nil, dir, durable.Options{FsyncInterval: 0})
	do(t, "POST", ts1.URL+"/v1/sketch/a", `{"type":"hll"}`).ok(t)
	do(t, "POST", ts1.URL+"/v1/sketch/a/add", "one\ntwo\nthree").ok(t)
	do(t, "DELETE", ts1.URL+"/v1/sketch/a", "").ok(t)
	do(t, "POST", ts1.URL+"/v1/sketch/a", `{"type":"countmin"}`).ok(t)
	do(t, "POST", ts1.URL+"/v1/sketch/a/add", "x\t7").ok(t)
	if err := s1.dur.Sync(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	s1.dur.Kill()

	_, ts2, _ := durableServer(t, nil, dir, durable.Options{FsyncInterval: 0})
	var doc struct {
		Estimate uint64 `json:"estimate"`
	}
	if err := json.Unmarshal(do(t, "GET", ts2.URL+"/v1/sketch/a/query?item=x", "").ok(t), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Estimate != 7 {
		t.Fatalf("recreated sketch: count(x) = %d, want 7", doc.Estimate)
	}
	var listDoc struct {
		Sketches []struct {
			Name, Type string
		} `json:"sketches"`
	}
	if err := json.Unmarshal(do(t, "GET", ts2.URL+"/v1/sketch", "").ok(t), &listDoc); err != nil {
		t.Fatal(err)
	}
	if len(listDoc.Sketches) != 1 || listDoc.Sketches[0].Type != "countmin" {
		t.Fatalf("recovered namespace %+v, want exactly one countmin", listDoc.Sketches)
	}
}

// TestRecoveryCreateNamingShards: hll's shards parameter sized a holder
// sketchd no longer serves. A create that names it — as the typed field
// older servers logged the request with, or in the params map — is
// accepted and ignored: replayed from the WAL, and from a snapshot cut,
// it recovers the bytes it served.
func TestRecoveryCreateNamingShards(t *testing.T) {
	dir := t.TempDir()
	s1, ts1, _ := durableServer(t, nil, dir, durable.Options{FsyncInterval: 0})
	creates := map[string]string{
		"typed":  `{"type":"hll","p":10,"shards":4}`,
		"params": `{"type":"hll","params":{"p":10,"shards":4}}`,
	}
	for name, body := range creates {
		do(t, "POST", ts1.URL+"/v1/sketch/"+name, body).ok(t)
		do(t, "POST", ts1.URL+"/v1/sketch/"+name+"/add", "a\nb\nc").ok(t)
	}
	if err := s1.dur.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	do(t, "POST", ts1.URL+"/v1/sketch/late", creates["params"]).ok(t)
	want := map[string][]byte{}
	for _, name := range []string{"typed", "params", "late"} {
		do(t, "POST", ts1.URL+"/v1/sketch/"+name+"/add", "d\ne").ok(t)
		want[name] = do(t, "GET", ts1.URL+"/v1/sketch/"+name+"/snapshot", "").ok(t)
	}
	if err := s1.dur.Sync(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	s1.dur.Kill()

	_, ts2, stats := durableServer(t, nil, dir, durable.Options{FsyncInterval: 0})
	if stats.SketchesLoaded != 2 {
		t.Errorf("loaded %d sketches from the snapshot, want 2 (stats %+v)", stats.SketchesLoaded, stats)
	}
	for name, w := range want {
		if got := do(t, "GET", ts2.URL+"/v1/sketch/"+name+"/snapshot", "").ok(t); !bytes.Equal(got, w) {
			t.Errorf("%s: recovered %d bytes, served %d", name, len(got), len(w))
		}
	}
}

func TestRecoveryMergeRecord(t *testing.T) {
	dir := t.TempDir()
	s1, ts1, _ := durableServer(t, nil, dir, durable.Options{FsyncInterval: 0})
	do(t, "POST", ts1.URL+"/v1/sketch/m", `{"type":"hll"}`).ok(t)
	do(t, "POST", ts1.URL+"/v1/sketch/m/add", "a\nb").ok(t)
	do(t, "POST", ts1.URL+"/v1/sketch/peer", `{"type":"hll"}`).ok(t)
	do(t, "POST", ts1.URL+"/v1/sketch/peer/add", "c\nd\ne").ok(t)
	peer := do(t, "GET", ts1.URL+"/v1/sketch/peer/snapshot", "").ok(t)
	do(t, "POST", ts1.URL+"/v1/sketch/m/merge", string(peer)).ok(t)
	want := do(t, "GET", ts1.URL+"/v1/sketch/m/snapshot", "").ok(t)
	if err := s1.dur.Sync(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	s1.dur.Kill()

	_, ts2, _ := durableServer(t, nil, dir, durable.Options{FsyncInterval: 0})
	got := do(t, "GET", ts2.URL+"/v1/sketch/m/snapshot", "").ok(t)
	if !bytes.Equal(got, want) {
		t.Fatal("merge record not replayed to byte-identical state")
	}
}

func TestStatusDurabilityFields(t *testing.T) {
	dir := t.TempDir()
	s1, ts1, _ := durableServer(t, nil, dir, durable.Options{FsyncInterval: 0})
	do(t, "POST", ts1.URL+"/v1/sketch/st", `{"type":"hll"}`).ok(t)
	do(t, "POST", ts1.URL+"/v1/sketch/st/add", "a\nb\nc").ok(t)
	if err := s1.dur.Sync(); err != nil {
		t.Fatal(err)
	}
	var doc StatusResponse
	if err := json.Unmarshal(do(t, "GET", ts1.URL+"/v1/status", "").ok(t), &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Durability.Enabled {
		t.Fatal("durability.enabled = false on a durable server")
	}
	if doc.Durability.WALLSN != 2 {
		t.Fatalf("wal_lsn = %d, want 2 (create + one batch)", doc.Durability.WALLSN)
	}
	if doc.Durability.WALBytes <= 0 || doc.Durability.LastFsyncAgeMS < 0 || doc.Sketches != 1 {
		t.Fatalf("status %+v: want positive wal_bytes, non-negative fsync age, 1 sketch", doc)
	}
	if err := s1.dur.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(do(t, "GET", ts1.URL+"/v1/status", "").ok(t), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Durability.LastSnapshotLSN != 2 {
		t.Fatalf("last_snapshot_lsn = %d, want 2", doc.Durability.LastSnapshotLSN)
	}

	// In-memory server: the block reports disabled.
	ts2 := serveLoop(t, New().Handler(), nil)
	if err := json.Unmarshal(do(t, "GET", ts2.URL+"/v1/status", "").ok(t), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Durability.Enabled {
		t.Fatal("durability.enabled = true on an in-memory server")
	}
}
