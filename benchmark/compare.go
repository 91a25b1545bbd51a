package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareRow is one (metric, workload) pair of two result files.
type compareRow struct {
	workload, metric string
	def              metricDef
	base, cand       float64
	verdict          string
}

// compareResults pairs the medians of base and cand. A pair is invalid
// when the metric is missing on one side or most runs of either side
// failed the noise guard; otherwise it is judged by the metric's bound
// and floor.
func compareResults(base, cand *resultFile) []compareRow {
	var rows []compareRow
	for _, bw := range base.Workloads {
		var cw *workloadSummary
		for i := range cand.Workloads {
			if cand.Workloads[i].Name == bw.Name {
				cw = &cand.Workloads[i]
			}
		}
		for _, def := range metricDefs {
			b, ok := bw.Metrics[def.name]
			if !ok {
				continue
			}
			row := compareRow{workload: bw.Name, metric: def.name, def: def, base: b.Median, verdict: "invalid"}
			if cw != nil {
				if c, ok := cw.Metrics[def.name]; ok {
					row.cand = c.Median
					if bw.Valid && cw.Valid {
						row.verdict = def.verdict(b.Median, c.Median)
					}
				}
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func compareMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare BASE.json CANDIDATE.json")
	}
	base, err := readResult(args[0])
	if err != nil {
		return err
	}
	cand, err := readResult(args[1])
	if err != nil {
		return err
	}
	fmt.Printf("base      %s: commit %s, %d run(s) of %g s\n", args[0], base.Host.Commit, base.Runs, base.Seconds)
	fmt.Printf("candidate %s: commit %s, %d run(s) of %g s\n", args[1], cand.Host.Commit, cand.Runs, cand.Seconds)
	fmt.Printf("%-15s %-22s %14s %14s %-5s %18s %8s  %s\n", "workload", "metric", "base", "candidate", "unit", "candidate/base", "bound", "verdict")
	worse := 0
	for _, r := range compareResults(base, cand) {
		bound := fmt.Sprintf("%.0f %%", 100*r.def.bound)
		if r.def.floor > 0 {
			bound += fmt.Sprintf("|%g", r.def.floor)
		}
		fmt.Printf("%-15s %-22s %14.4f %14.4f %-5s %8.3f of %-7.4g %8s  %s\n",
			r.workload, r.metric, r.base, r.cand, r.def.unit, r.cand/r.base, r.base, bound, r.verdict)
		if r.verdict == "worse" {
			worse++
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d (metric, workload) pair(s) worse than the bound allows", worse)
	}
	return nil
}
