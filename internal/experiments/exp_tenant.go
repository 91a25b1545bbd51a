package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"net/url"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/server"
	"repro/internal/server/client"
)

func init() {
	register("E31", "multi-tenant sketchd: group-by fan-out, quota isolation, TTL eviction under kill -9", runE31)
}

// runE31 validates the multi-tenant serving layer end to end:
//
//  1. group-by ingest fans one batched POST into >1000 per-group
//     sketches, logged as ONE WAL record;
//  2. a tenant breaching its quota answers 429 while other tenants'
//     traffic is untouched;
//  3. a WAL-logged TTL eviction survives kill -9 — the evicted sketch
//     stays dead and survivors recover byte-identically;
//  4. legacy surfaces keep working: bare /v1 URLs address the default
//     tenant, and pre-tenant version-1 DUR1 logs still replay;
//  5. the single-sketch ingest apply path stays allocation-free.
func runE31() *Result {
	fail := func(format string, args ...any) *Result {
		return &Result{ID: "E31", Title: "multi-tenant sketchd",
			Notes: []string{fmt.Sprintf(format, args...)}}
	}
	var notes []string
	var tables []*core.Table

	// ---- Part 1: group-by fan-out, one call, one WAL record ----
	dir, err := os.MkdirTemp("", "e31-tenant-*")
	if err != nil {
		return fail("tempdir: %v", err)
	}
	defer os.RemoveAll(dir)
	srv := server.New()
	if _, err := srv.EnableDurability(dir, durable.Options{FsyncInterval: 0}); err != nil {
		return fail("durability: %v", err)
	}
	base, shutdown, err := serveLoopback(srv.Handler())
	if err != nil {
		return fail("serve: %v", err)
	}

	const groups, perGroup = 1200, 4
	var batch bytes.Buffer
	for g := 0; g < groups; g++ {
		for i := 0; i < perGroup; i++ {
			fmt.Fprintf(&batch, "seg%04d\tuser-%d-%d\n", g, g, i)
		}
	}
	cl := client.New(base).Tenant("ads")
	lsn0 := srv.DurabilityStatus().WALLSN
	t0 := time.Now()
	ack, err := cl.GroupBy(url.Values{"type": {"hll"}, "p": {"12"}, "prefix": {"g-"}}, batch.Bytes())
	wall := time.Since(t0)
	if err != nil {
		shutdown()
		return fail("groupby: %v", err)
	}
	walRecords := srv.DurabilityStatus().WALLSN - lsn0

	tbl1 := core.NewTable("group-by ingest: one POST, a sketch per group, one WAL record",
		"groups", "items", "created", "wal_records", "wall_ms")
	tbl1.AddRow(ack.Groups, int(ack.Added), ack.Created, int(walRecords), float64(wall.Milliseconds()))
	tables = append(tables, tbl1)
	if ack.Created >= 1000 && walRecords == 1 {
		notes = append(notes, fmt.Sprintf("acceptance: %d group sketches from one batched call, logged as 1 WAL record — met", ack.Created))
	} else {
		notes = append(notes, fmt.Sprintf("acceptance NOT met: created %d sketches across %d WAL records", ack.Created, walRecords))
	}

	// ---- Part 3 (same durable server): TTL eviction across kill -9 ----
	ttlCl := client.New(base).Tenant("ttl")
	if err := ttlCl.Create("ephemeral", server.CreateRequest{Type: "hll", P: 12, TTLSeconds: 1, CreatedUnix: 1000}); err != nil {
		shutdown()
		return fail("create ephemeral: %v", err)
	}
	ttlCl.Add("ephemeral", []string{"gone-1", "gone-2"})
	if err := ttlCl.Create("keeper", server.CreateRequest{Type: "hll", P: 12}); err != nil {
		shutdown()
		return fail("create keeper: %v", err)
	}
	ttlCl.Add("keeper", []string{"kept-1", "kept-2", "kept-3"})
	evicted := srv.SweepExpired(time.Now())
	wantKeeper, err := ttlCl.Snapshot("keeper")
	if err != nil {
		shutdown()
		return fail("keeper snapshot: %v", err)
	}
	wantGroup, err := cl.Snapshot("g-seg0000")
	if err != nil {
		shutdown()
		return fail("group snapshot: %v", err)
	}

	shutdown()
	if err := srv.KillDurability(); err != nil {
		return fail("kill: %v", err)
	}

	srv2 := server.New()
	if _, err := srv2.EnableDurability(dir, durable.Options{FsyncInterval: 0}); err != nil {
		return fail("recovery: %v", err)
	}
	base2, shutdown2, err := serveLoopback(srv2.Handler())
	if err != nil {
		return fail("serve recovered: %v", err)
	}
	defer shutdown2()
	defer srv2.CloseDurability()

	_, ephErr := client.New(base2).Tenant("ttl").Snapshot("ephemeral")
	gotKeeper, _ := client.New(base2).Tenant("ttl").Snapshot("keeper")
	gotGroup, _ := client.New(base2).Tenant("ads").Snapshot("g-seg0000")
	var se *client.StatusError
	evictedStaysDead := errors.As(ephErr, &se) && se.Code == 404

	tbl3 := core.NewTable("TTL eviction and group-by state across kill -9",
		"check", "result")
	tbl3.AddRow("sweep evicted expired sketch", fmt.Sprintf("%d evicted", evicted))
	tbl3.AddRow("evicted sketch after recovery", map[bool]string{true: "404 (stays dead)", false: fmt.Sprintf("RESURRECTED: %v", ephErr)}[evictedStaysDead])
	tbl3.AddRow("survivor snapshot byte-identical", fmt.Sprintf("%v", bytes.Equal(wantKeeper, gotKeeper)))
	tbl3.AddRow("group-by sketch byte-identical", fmt.Sprintf("%v", bytes.Equal(wantGroup, gotGroup)))
	tables = append(tables, tbl3)
	if evicted == 1 && evictedStaysDead && bytes.Equal(wantKeeper, gotKeeper) && bytes.Equal(wantGroup, gotGroup) {
		notes = append(notes, "acceptance: TTL eviction is WAL-logged — kill -9 recovery keeps the eviction and restores survivors byte-identically — met")
	} else {
		notes = append(notes, "acceptance NOT met: TTL eviction did not survive recovery intact")
	}

	// Legacy URL on the recovered server: bare /v1 is the default
	// tenant, disjoint from the tenanted namespaces above.
	legacyCl := client.New(base2)
	if err := legacyCl.Create("legacy-url", server.CreateRequest{Type: "hll", P: 12}); err != nil {
		return fail("legacy create: %v", err)
	}
	legacyCl.Add("legacy-url", []string{"a", "b"})
	legacyEst, legacyErr := legacyCl.Estimate("legacy-url", nil)
	_, crossErr := client.New(base2).Tenant("ads").Snapshot("legacy-url")
	crossIs404 := errors.As(crossErr, &se) && se.Code == 404

	// ---- Part 2: quota isolation on a fresh in-memory server ----
	qsrv := server.New()
	qsrv.SetTenantQuota(server.TenantQuota{MaxSketches: 5})
	qbase, qshutdown, err := serveLoopback(qsrv.Handler())
	if err != nil {
		return fail("quota server: %v", err)
	}
	defer qshutdown()
	noisy := client.New(qbase).Tenant("noisy")
	quiet := client.New(qbase).Tenant("quiet")
	for i := 0; i < 5; i++ {
		if err := noisy.Create(fmt.Sprintf("n-%d", i), server.CreateRequest{Type: "hll", P: 12}); err != nil {
			return fail("noisy create %d: %v", i, err)
		}
	}
	breachErr := noisy.Create("n-over", server.CreateRequest{Type: "hll", P: 12})
	breachIs429 := errors.As(breachErr, &se) && se.Code == 429
	quietCreateErr := quiet.Create("q-0", server.CreateRequest{Type: "hll", P: 12})
	quietAddErr := quiet.Add("q-0", []string{"x", "y", "z"})
	noisyAddErr := noisy.Add("n-0", []string{"still-ingesting"})

	tbl2 := core.NewTable("per-tenant quota (max 5 sketches): breach answers 429, other tenants untouched",
		"tenant", "op", "result")
	tbl2.AddRow("noisy", "create #6", map[bool]string{true: "429 too many requests", false: fmt.Sprintf("%v", breachErr)}[breachIs429])
	tbl2.AddRow("noisy", "ingest into existing", okStr(noisyAddErr))
	tbl2.AddRow("quiet", "create", okStr(quietCreateErr))
	tbl2.AddRow("quiet", "ingest", okStr(quietAddErr))
	tables = append(tables, tbl2)
	if breachIs429 && quietCreateErr == nil && quietAddErr == nil && noisyAddErr == nil {
		notes = append(notes, "acceptance: quota breach answers 429 without disturbing other tenants (or the tenant's own existing sketches) — met")
	} else {
		notes = append(notes, "acceptance NOT met: quota breach leaked across tenants")
	}

	// ---- Part 4: pre-tenant version-1 DUR1 log replay ----
	v1dir, err := os.MkdirTemp("", "e31-v1log-*")
	if err != nil {
		return fail("tempdir: %v", err)
	}
	defer os.RemoveAll(v1dir)
	v1log := durable.WALHeaderV1()
	v1log = durable.AppendRecordV1(v1log, durable.Record{LSN: 1, Op: durable.OpCreate, Name: "legacy", Body: []byte(`{"type":"hll","p":12}`)})
	v1log = durable.AppendRecordV1(v1log, durable.Record{LSN: 2, Op: durable.OpIngest, Name: "legacy", Body: []byte("old-1\nold-2\nold-3")})
	if err := os.WriteFile(v1dir+"/wal-00000000000000000001.log", v1log, 0o644); err != nil {
		return fail("write v1 log: %v", err)
	}
	v1srv := server.New()
	v1stats, err := v1srv.EnableDurability(v1dir, durable.Options{FsyncInterval: 0})
	if err != nil {
		return fail("v1 recovery: %v", err)
	}
	v1base, v1shutdown, err := serveLoopback(v1srv.Handler())
	if err != nil {
		return fail("serve v1: %v", err)
	}
	v1est, v1err := client.New(v1base).Estimate("legacy", nil)
	v1shutdown()
	v1srv.CloseDurability()

	tbl4 := core.NewTable("legacy compatibility", "surface", "result")
	tbl4.AddRow("bare /v1 URLs (default tenant)", fmt.Sprintf("estimate %.0f, err=%v", legacyEst, legacyErr))
	tbl4.AddRow("default-tenant sketch from other tenant", map[bool]string{true: "404 (isolated)", false: fmt.Sprintf("%v", crossErr)}[crossIs404])
	tbl4.AddRow("version-1 DUR1 log replay", fmt.Sprintf("%d records, estimate %.0f, err=%v", v1stats.RecordsReplayed, v1est, v1err))
	tables = append(tables, tbl4)
	if legacyErr == nil && crossIs404 && v1err == nil && v1stats.RecordsReplayed == 2 {
		notes = append(notes, "acceptance: legacy paths keep working — bare /v1 URLs and version-1 DUR1 logs replay into the default tenant — met")
	} else {
		notes = append(notes, "acceptance NOT met: a legacy surface regressed")
	}

	// ---- Part 5: the ingest apply path stays allocation-free ----
	entry, err := server.NewEntry(server.CreateRequest{Type: "hll", P: 14})
	if err != nil {
		return fail("entry: %v", err)
	}
	defer entry.Close()
	lines := make([][]byte, 256)
	for i := range lines {
		lines[i] = []byte(fmt.Sprintf("alloc-probe-%d", i))
	}
	entry.Add(lines) // warm up
	allocs := testing.AllocsPerRun(50, func() { entry.Add(lines) })
	if allocs == 0 {
		notes = append(notes, "acceptance: batched ingest apply path runs at 0 allocs/op — met")
	} else {
		notes = append(notes, fmt.Sprintf("acceptance NOT met: ingest apply path allocates %.1f allocs/op", allocs))
	}

	return &Result{
		ID:     "E31",
		Title:  "multi-tenant sketchd: group-by fan-out, quota isolation, TTL eviction under kill -9",
		Claim:  "a sketch service is multi-tenant by construction: namespaces are cheap (two map hops), per-group sketches are created by the stream itself (Gigascope-style GROUP BY), and quota/TTL policy rides the same WAL as the data (§4 pathways to impact)",
		Tables: tables,
		Notes:  notes,
	}
}

func okStr(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}
