package experiments

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/server/client"
)

func init() {
	register("E25", "sketchd ingest throughput over HTTP (clients × batch size)", runE25)
}

// runE25 is the sketchd loadgen: it stands up the HTTP serving layer
// (in-process on a loopback listener unless SKETCHD_ADDR points at an
// external daemon) and drives batched newline-delimited ingest into a
// sharded-HLL sketch from 1–16 concurrent clients, reporting aggregate
// adds/sec. This is the paper's "pathway to impact" claim made
// operational: mergeable summaries behind a service ingesting heavy
// streams, throughput scaling with client concurrency because the hot
// path is the uncontended sharded writer, not a global lock.
func runE25() *Result {
	base := os.Getenv("SKETCHD_ADDR")
	var shutdown func()
	if base == "" {
		var err error
		base, shutdown, err = serveLoopback(server.New().Handler())
		if err != nil {
			return &Result{
				ID:    "E25",
				Title: "sketchd ingest throughput over HTTP",
				Notes: []string{fmt.Sprintf("failed to start local sketchd: %v", err)},
			}
		}
		defer shutdown()
	}

	const itemsPerClient = 1 << 17 // 131072 adds per client per config
	tbl := core.NewTable("sketchd batched ingest, sharded HLL (loopback HTTP)",
		"clients", "batch", "requests", "adds", "wall_ms", "adds_per_sec")

	var peak float64
	var peakClients int
	for _, clients := range []int{1, 2, 4, 8, 16} {
		for _, batch := range []int{100, 1000} {
			name := fmt.Sprintf("e25-c%d-b%d", clients, batch)
			cl := client.New(base)
			if err := cl.Create(name, server.CreateRequest{Type: "hll", P: 14, Seed: 1}); err != nil {
				return &Result{ID: "E25", Title: "sketchd ingest throughput over HTTP",
					Notes: []string{fmt.Sprintf("create: %v", err)}}
			}
			adds, reqs, elapsed := driveIngest(base, name, clients, batch, itemsPerClient)
			rate := float64(adds) / elapsed.Seconds()
			if rate > peak {
				peak, peakClients = rate, clients
			}
			tbl.AddRow(clients, batch, reqs, adds,
				float64(elapsed.Milliseconds()), rate)
			cl.Delete(name)
		}
	}

	notes := []string{
		fmt.Sprintf("peak aggregate ingest %.3g adds/sec at %d clients", peak, peakClients),
		"each client POSTs newline-delimited batches over keep-alive HTTP; the server splits batches with pooled buffers and folds them into the sharded HLL under one lock acquisition per batch",
	}
	if peak >= 1e6 {
		notes = append(notes, "acceptance: ≥1M adds/sec aggregate on batched ingestion — met")
	} else {
		notes = append(notes, "acceptance: ≥1M adds/sec aggregate NOT met on this host")
	}
	return &Result{
		ID:     "E25",
		Title:  "sketchd ingest throughput over HTTP (clients × batch size)",
		Claim:  "sketch services ingest heavy distributed streams cheaply: updates are fast, summaries stay small, and merge makes per-node sketches composable (§4 pathways to impact)",
		Tables: []*core.Table{tbl},
		Notes:  notes,
	}
}

// driveIngest runs `clients` goroutines, each sending itemsPerClient
// unique items in batches of `batch` lines, and returns total adds,
// total requests, and wall time.
func driveIngest(base, name string, clients, batch, itemsPerClient int) (adds, reqs int, elapsed time.Duration) {
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := client.New(base)
			buf := make([]byte, 0, batch*16)
			sent := 0
			for sent < itemsPerClient {
				buf = buf[:0]
				for i := 0; i < batch && sent < itemsPerClient; i++ {
					// Unique per client so the union is clients × itemsPerClient.
					buf = strconv.AppendInt(buf, int64(c)<<32|int64(sent), 10)
					buf = append(buf, '\n')
					sent++
				}
				if err := cl.AddBatch(name, buf); err != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed = time.Since(start)
	adds = clients * itemsPerClient
	reqs = clients * (itemsPerClient + batch - 1) / batch
	return adds, reqs, elapsed
}

// serveLoopback serves h on an ephemeral loopback port as sketchd
// does, through server.HTTPServer, returning the base URL and a
// shutdown func.
func serveLoopback(h http.Handler) (base string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &server.HTTPServer{Handler: h}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), func() { hs.Close() }, nil
}
