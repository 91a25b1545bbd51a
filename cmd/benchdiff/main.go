// Command benchdiff compares two benchrun JSON reports (BENCH_*.json,
// or a CI bench-smoke artifact) benchmark by benchmark and flags
// regressions: any benchmark whose ns/op grew by more than -threshold
// (default 10%), and any hot path whose allocs/op rose above the old
// report's figure — the zero-alloc guarantee is part of the contract,
// so a single new alloc/op is a regression at any ns delta.
//
// Usage:
//
//	benchdiff old.json new.json           # exit 1 only if allocs/op rose
//	benchdiff -strict old.json new.json   # exit 1 if anything regressed
//	benchdiff -threshold 0.05 a.json b.json
//
// allocs/op is a count, the same on any runner, so its growth for a
// benchmark both reports hold always fails. ns/op only informs unless
// -strict: microbenchmark noise on shared CI runners would otherwise
// gate merges on scheduler luck. CI runs it after bench-smoke;
// scripts/benchdiff.sh is the local entry point. When the two reports
// disagree on CPU model or GOMAXPROCS the diff is printed with a loud
// warning — across machines the numbers are two experiments, not a
// regression signal.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/benchrun"
)

func main() {
	threshold := flag.Float64("threshold", 0.10, "ns/op growth above this fraction flags a regression")
	strict := flag.Bool("strict", false, "exit nonzero when a regression is flagged")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold 0.10] [-strict] old.json new.json")
		os.Exit(2)
	}
	oldRep, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	newRep, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	regressions, allocGrowth := diff(os.Stdout, oldRep, newRep, *threshold)
	if allocGrowth > 0 || regressions > 0 && *strict {
		os.Exit(1)
	}
}

// diffWireBytes prints the per-family envelope-size comparison (schema
// 3 wire_bytes). Always informational: wire sizes change whenever a
// format version adds a field, which is a review item, not a CI gate.
func diffWireBytes(w *os.File, oldRep, newRep benchrun.Report) {
	if len(oldRep.WireBytes) == 0 && len(newRep.WireBytes) == 0 {
		return
	}
	oldByType := make(map[string]benchrun.WireBytes, len(oldRep.WireBytes))
	for _, wb := range oldRep.WireBytes {
		oldByType[wb.Type] = wb
	}
	fmt.Fprintf(w, "\nwire bytes (reference ingest, informational)\n")
	fmt.Fprintf(w, "%-20s %12s %12s %12s %12s\n", "family", "old full", "new full", "old slim", "new slim")
	for _, nw := range newRep.WireBytes {
		ow, ok := oldByType[nw.Type]
		if !ok {
			fmt.Fprintf(w, "%-20s %12s %12d %12s %12s  (new)\n", nw.Type, "-", nw.FullBytes, "-", slimCol(nw.SlimBytes))
			continue
		}
		delete(oldByType, nw.Type)
		mark := ""
		if nw.FullBytes != ow.FullBytes || nw.SlimBytes != ow.SlimBytes {
			mark = "  changed"
		}
		fmt.Fprintf(w, "%-20s %12d %12d %12s %12s%s\n",
			nw.Type, ow.FullBytes, nw.FullBytes, slimCol(ow.SlimBytes), slimCol(nw.SlimBytes), mark)
	}
	for name := range oldByType {
		fmt.Fprintf(w, "%-20s (removed)\n", name)
	}
}

func slimCol(n int) string {
	if n == 0 {
		return "-"
	}
	return fmt.Sprintf("%d", n)
}

func load(path string) (benchrun.Report, error) {
	var rep benchrun.Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %v", path, err)
	}
	return rep, nil
}

// diff prints the comparison and returns the number of flagged
// regressions, and how many of them are allocs/op growth.
func diff(w *os.File, oldRep, newRep benchrun.Report, threshold float64) (regressions, allocGrowth int) {
	if oldRep.CPUModel != "" && newRep.CPUModel != "" && oldRep.CPUModel != newRep.CPUModel {
		fmt.Fprintf(w, "WARNING: reports come from different CPUs (%q vs %q); deltas are not comparable\n",
			oldRep.CPUModel, newRep.CPUModel)
	}
	if oldRep.GOMAXPROCS != newRep.GOMAXPROCS {
		fmt.Fprintf(w, "WARNING: GOMAXPROCS differs (%d vs %d); parallel-path deltas are not comparable\n",
			oldRep.GOMAXPROCS, newRep.GOMAXPROCS)
	}
	oldByName := make(map[string]benchrun.Result, len(oldRep.Results))
	for _, r := range oldRep.Results {
		oldByName[r.Name] = r
	}
	fmt.Fprintf(w, "%-28s %12s %12s %8s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	for _, nr := range newRep.Results {
		or, ok := oldByName[nr.Name]
		if !ok {
			fmt.Fprintf(w, "%-28s %12s %12.2f %8s  (new)\n", nr.Name, "-", nr.NsPerOp, "-")
			continue
		}
		delete(oldByName, nr.Name)
		delta := 0.0
		if or.NsPerOp > 0 {
			delta = (nr.NsPerOp - or.NsPerOp) / or.NsPerOp
		}
		mark := ""
		if delta > threshold {
			mark = "  REGRESSION"
			regressions++
		} else if delta < -threshold {
			mark = "  improved"
		}
		if nr.AllocsPerOp > or.AllocsPerOp {
			mark += fmt.Sprintf("  ALLOCS %d->%d", or.AllocsPerOp, nr.AllocsPerOp)
			regressions++
			allocGrowth++
		}
		fmt.Fprintf(w, "%-28s %12.2f %12.2f %+7.1f%%%s\n", nr.Name, or.NsPerOp, nr.NsPerOp, 100*delta, mark)
	}
	for name := range oldByName {
		fmt.Fprintf(w, "%-28s (removed)\n", name)
	}
	diffWireBytes(w, oldRep, newRep)
	if regressions > 0 {
		fmt.Fprintf(w, "\n%d benchmark(s) regressed past %.0f%%\n", regressions, 100*threshold)
	} else {
		fmt.Fprintf(w, "\nno regressions past %.0f%%\n", 100*threshold)
	}
	if allocGrowth > 0 {
		fmt.Fprintf(w, "%d benchmark(s) allocate more per op than the old report: failing\n", allocGrowth)
	}
	return regressions, allocGrowth
}
