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
// It exits non-zero when an experiment is unknown or one of its exact
// pass bars is not met.
//
// sketchbench measures the paper's claims and nothing else; the
// "(… completed in …)" line after each experiment is the one timing of
// a whole experiment. Timings of a kernel or a hop are `go test -run
// '^$' -bench 'Hot/<row>' -benchmem .` at the module root; a PR's
// end-to-end numbers are benchmark/ (see its README).
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
	flag.Parse()

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
		fmt.Print(res)
		fmt.Printf("(%s completed in %v)\n\n", res.ID, time.Since(start).Round(time.Millisecond))
		for _, claim := range res.Unmet() {
			fmt.Fprintf(os.Stderr, "%s: bar not met: %s\n", res.ID, claim)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}
