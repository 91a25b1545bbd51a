package experiments

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/server"
	"repro/internal/server/client"
)

func init() {
	register("E27", "durable sketchd ingest throughput vs fsync policy", runE27)
}

// runE27 measures what durability costs the serving layer: the same
// batched HTTP ingest as E25, against an in-memory sketchd and against
// durable sketchds at the three fsync policies (never, 100ms group
// commit, per-batch). The WAL append is off the hot path — handlers
// hand records to a background syncer over a bounded channel — so the
// group-commit configurations should retain most of the in-memory
// throughput; per-batch fsync pays a disk flush per drained batch and
// shows the floor.
func runE27() *Result {
	const (
		clients        = 4
		batch          = 1000
		itemsPerClient = 1 << 16 // 65536 adds per client per config
	)

	configs := []struct {
		label string
		fsync time.Duration // group-commit policy; meaningful when durable
		dur   bool
	}{
		{"in-memory", 0, false},
		{"fsync=never", -1, true},
		{"fsync=100ms", 100 * time.Millisecond, true},
		{"fsync=per-batch", 0, true},
	}

	tbl := core.NewTable("durable sketchd batched ingest, sharded HLL (loopback HTTP, 4 clients × 1000-line batches)",
		"config", "adds", "wall_ms", "adds_per_sec", "pct_of_baseline", "wal_lsn")

	var baseline float64
	var pctAt100ms float64
	notes := []string{}
	for _, cfg := range configs {
		base, shutdown, err := startDurableSketchd(cfg.dur, cfg.fsync)
		if err != nil {
			return &Result{ID: "E27", Title: "durable sketchd ingest throughput vs fsync policy",
				Notes: []string{fmt.Sprintf("%s: failed to start sketchd: %v", cfg.label, err)}}
		}
		cl := client.New(base)
		if err := cl.Create("e27", server.CreateRequest{Type: "hll", P: 14, Seed: 1}); err != nil {
			shutdown()
			return &Result{ID: "E27", Title: "durable sketchd ingest throughput vs fsync policy",
				Notes: []string{fmt.Sprintf("%s: create: %v", cfg.label, err)}}
		}
		adds, _, elapsed := driveIngest(base, "e27", clients, batch, itemsPerClient)
		rate := float64(adds) / elapsed.Seconds()
		var lsn uint64
		if status, err := cl.Status(); err == nil {
			lsn = status.Durability.WALLSN
		}
		shutdown()

		pct := 100.0
		if cfg.dur {
			pct = 100 * rate / baseline
		} else {
			baseline = rate
		}
		if cfg.label == "fsync=100ms" {
			pctAt100ms = pct
		}
		tbl.AddRow(cfg.label, adds, float64(elapsed.Milliseconds()), rate, pct, lsn)
	}

	notes = append(notes,
		"durable configs append every batch to a CRC32C-checksummed WAL; the syncer group-commits per the fsync policy, so handlers block only on the bounded queue, not on the disk",
		fmt.Sprintf("100ms group commit retains %.1f%% of in-memory ingest throughput", pctAt100ms))
	if pctAt100ms >= 50 {
		notes = append(notes, "acceptance: ≥50% of in-memory throughput at 100ms group commit — met")
	} else {
		notes = append(notes, "acceptance: ≥50% of in-memory throughput at 100ms group commit NOT met on this host")
	}
	return &Result{
		ID:     "E27",
		Title:  "durable sketchd ingest throughput vs fsync policy",
		Claim:  "durability is a policy knob, not a redesign: WAL + snapshots give crash recovery for every registry family while group commit keeps ingest within a constant factor of in-memory serving (§4 pathways to impact)",
		Tables: []*core.Table{tbl},
		Notes:  notes,
	}
}

// startDurableSketchd serves internal/server on an ephemeral loopback
// port, optionally durable in a throwaway data dir that is removed on
// shutdown.
func startDurableSketchd(dur bool, fsync time.Duration) (base string, shutdown func(), err error) {
	srv := server.New()
	cleanupDir := func() {}
	if dur {
		dir, err := os.MkdirTemp("", "e27-sketchd-*")
		if err != nil {
			return "", nil, err
		}
		cleanupDir = func() { os.RemoveAll(dir) }
		if _, err := srv.EnableDurability(dir, durable.Options{FsyncInterval: fsync}); err != nil {
			cleanupDir()
			return "", nil, err
		}
	}
	hs, base, err := server.Listen("127.0.0.1:0", srv.Handler())
	if err != nil {
		cleanupDir()
		return "", nil, err
	}
	return base, func() {
		hs.Close()
		srv.CloseDurability()
		cleanupDir()
	}, nil
}
