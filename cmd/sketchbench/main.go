// Command sketchbench regenerates the reproduction's evaluation: every
// experiment in DESIGN.md §2 (E1…E24 plus ablations), printed as the
// plain-text tables recorded in EXPERIMENTS.md.
//
// Usage:
//
//	sketchbench              # run every experiment
//	sketchbench -run E4,E8   # run selected experiments
//	sketchbench -list        # list experiment ids and titles
//
// The E25 loadgen starts an in-process sketchd by default; pass
// -sketchd http://host:port to drive an externally running daemon
// instead.
//
// sketchbench measures the paper's claims and nothing else. Timings
// of a kernel or a hop are `go test -run '^$' -bench 'Hot/<row>'
// -benchmem .` at the module root; a PR's end-to-end numbers are
// benchmark/ (see its README).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	run := flag.String("run", "", "comma-separated experiment ids (default: all)")
	sketchd := flag.String("sketchd", "", "base URL of a running sketchd for the E25 loadgen (default: in-process)")
	flag.Parse()

	if *sketchd != "" {
		os.Setenv("SKETCHD_ADDR", *sketchd)
	}

	if *list {
		titles := experiments.Titles()
		for _, id := range experiments.IDs() {
			fmt.Printf("%-5s %s\n", id, titles[id])
		}
		return
	}

	ids := experiments.IDs()
	if *run != "" {
		ids = strings.Split(*run, ",")
	}
	failed := false
	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		res, err := experiments.Run(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			failed = true
			continue
		}
		fmt.Printf("=== %s: %s\n", res.ID, res.Title)
		fmt.Printf("paper claim: %s\n\n", res.Claim)
		for _, tbl := range res.Tables {
			fmt.Println(tbl.String())
		}
		for _, note := range res.Notes {
			fmt.Println("note:", note)
		}
		fmt.Printf("(%s completed in %v)\n\n", res.ID, time.Since(start).Round(time.Millisecond))
	}
	if failed {
		os.Exit(1)
	}
}
