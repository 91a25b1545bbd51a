// Command benchmark is the repository's benchmark: a closed-loop load
// generator that drives the real sketchd binary over HTTP (run), an
// in-process per-layer trace (trace, in ./layertrace) and a comparison
// of two result files (compare). See README.md.
//
//	go run . run -workload all -runs 10 -out results/a.json
//	go run . trace -seed 1 -out trace.json
//	go run . compare results/a.json results/b.json
//
// Without a subcommand the flags are those of run, which is how
// BENCHMARK.json's command invokes it through run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/benchmark/gen"
)

func main() {
	args := os.Args[1:]
	cmd := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	var err error
	switch cmd {
	case "run":
		err = runMain(args)
	case "trace":
		err = traceMain(args)
	case "compare":
		err = compareMain(args)
	case "refserver": // started by run, see reference.go
		err = refMain(args)
	default:
		err = fmt.Errorf("unknown subcommand %q (want run, trace or compare)", cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// tree locates the repository under test and the directory binaries are
// built into.
type tree struct {
	root string // holds go.mod, cmd/sketchd and benchmark/
	bin  string
}

func (t *tree) flags(fs *flag.FlagSet) {
	fs.StringVar(&t.root, "root", "", "repository under test (default: . or .., whichever holds cmd/sketchd)")
	fs.StringVar(&t.bin, "bin", "", "directory for built binaries and scratch data (default: <root>/.bench_build)")
}

func (t *tree) resolve() error {
	if t.root == "" {
		for _, dir := range []string{".", ".."} {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "sketchd")); err == nil {
				t.root = dir
				break
			}
		}
		if t.root == "" {
			return fmt.Errorf("no cmd/sketchd in . or ..: pass -root")
		}
	}
	var err error
	if t.root, err = filepath.Abs(t.root); err != nil {
		return err
	}
	if t.bin == "" {
		t.bin = filepath.Join(t.root, ".bench_build")
	}
	if t.bin, err = filepath.Abs(t.bin); err != nil {
		return err
	}
	return os.MkdirAll(t.bin, 0o755)
}

// build compiles package pkg of the module at dir into t.bin/name. The
// Go build cache makes the repeat a staleness check, so a run never
// measures a binary older than the source.
func (t *tree) build(dir, pkg, name string) (string, error) {
	out := filepath.Join(t.bin, name)
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Dir = dir
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build %s in %s: %v\n%s", pkg, dir, err, msg)
	}
	return out, nil
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func describeHost(root string) hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Commit:     "unknown", // the driver's checkout is not a git repository
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	git := exec.Command("git", "rev-parse", "--short", "HEAD")
	git.Dir = root
	if out, err := git.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// metricSummary is one metric over the runs of a workload that passed
// the noise guard: what compare reads is the median, and the quartiles
// give the run-to-run spread.
type metricSummary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

type workloadSummary struct {
	Name    string                   `json:"name"`
	Valid   bool                     `json:"valid"` // most runs passed the noise guard
	Metrics map[string]metricSummary `json:"metrics"`
	Runs    []*workloadResult        `json:"runs"`
}

// resultFile is what run -out writes and compare reads.
type resultFile struct {
	Host      hostInfo          `json:"host"`
	Seed      int64             `json:"seed"` // of the first run; run i uses seed+i
	Seconds   float64           `json:"seconds"`
	Runs      int               `json:"runs"`
	Workloads []workloadSummary `json:"workloads"`
}

func runMain(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var t tree
	t.flags(fs)
	name := fs.String("workload", "all", "one of "+workloadNames()+", or all")
	seed := fs.Int64("seed", 1, "input seed; run i of -runs uses seed+i")
	seconds := fs.Float64("seconds", 15, "measured window per run, after the warm-up")
	runs := fs.Int("runs", 1, "runs per workload; the result file holds their medians and quartiles")
	trace := fs.Int("trace", 0, "1: run the per-layer trace instead and print the per_layer metrics")
	repeats := fs.Int("repeats", 0, "times a run is repeated while its window lost more than 2 % to steal (issue 11: 2; the driver's time limit: 0)")
	out := fs.String("out", "", "write the result file here")
	fs.Parse(args)

	var selected []*workload
	if *name == "all" {
		selected = workloads
	} else if w := workloadByName(*name); w != nil {
		selected = []*workload{w}
	} else {
		return fmt.Errorf("unknown workload %q (want %s, or all)", *name, workloadNames())
	}
	if err := t.resolve(); err != nil {
		return err
	}
	if *trace == 1 {
		// The layers are the same whatever the traffic mix, so the
		// trace is one run whichever workload is named.
		return layerTrace(&t, "-seed", fmt.Sprint(*seed))
	}

	// Two clients and the controller on two cores, whatever the host.
	runtime.GOMAXPROCS(clients)
	sketchd, err := t.build(t.root, "./cmd/sketchd", "sketchd")
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(t.bin, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	file := resultFile{Host: describeHost(t.root), Seed: *seed, Seconds: *seconds, Runs: *runs}
	fmt.Printf("host: %d cpus (%s), loadgen GOMAXPROCS %d, %s, commit %s\n",
		file.Host.NProc, file.Host.CPUModel, file.Host.GOMAXPROCS, file.Host.GoVersion, file.Host.Commit)
	var last *workloadResult
	failed := false
	for _, w := range selected {
		sum := workloadSummary{Name: w.name}
		var valid []*workloadResult
		for i := 0; i < *runs; i++ {
			cfg := runConfig{
				sketchd: sketchd,
				self:    self,
				tmp:     tmp,
				in:      gen.New(*seed+int64(i), gen.Bodies),
				seconds: time.Duration(*seconds * float64(time.Second)),
				warmup:  warmup,
				setups:  setups,
			}
			res, err := runWorkload(w, cfg, *repeats)
			if err != nil {
				return err
			}
			printResult(res, *seed+int64(i), *seconds)
			_, nfailed := res.counts()
			failed = failed || nfailed > 0 || !allOK(res.Checks)
			if res.Valid {
				valid = append(valid, res)
			}
			sum.Runs = append(sum.Runs, res)
			last = res
		}
		// A run the guard rejected to the end stays in the file but out of
		// the medians; a set with most runs rejected compares as invalid.
		sum.Valid = 2*len(valid) > len(sum.Runs)
		if !sum.Valid {
			valid = sum.Runs
		}
		sum.Metrics = summarize(valid)
		file.Workloads = append(file.Workloads, sum)
	}
	if *out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(selected) == 1 && *runs == 1 {
		// The line the driver reads: the gated metrics of this run. It has
		// no field for the noise guard's mark; the report above carries it.
		attempted, nfailed := last.counts()
		gated := map[string]metricValue{}
		for _, m := range metricDefs {
			if m.gate > 0 {
				gated[m.name] = last.Metrics[m.name]
			}
		}
		line, err := json.Marshal(map[string]any{
			"correct": allOK(last.Checks), "attempted": attempted, "failed": nfailed, "metrics": gated,
		})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if failed {
		return fmt.Errorf("a request failed or a correctness check did not hold")
	}
	return nil
}

func summarize(runs []*workloadResult) map[string]metricSummary {
	out := map[string]metricSummary{}
	for name, first := range runs[0].Metrics {
		values := make([]float64, len(runs))
		for i, r := range runs {
			values[i] = r.Metrics[name].Value
		}
		s := metricSummary{Unit: first.Unit, Median: median(values), Values: values}
		s.Q1, s.Q3 = quartiles(values)
		out[name] = s
	}
	return out
}

func printResult(r *workloadResult, seed int64, seconds float64) {
	valid := "valid"
	if !r.Valid {
		valid = "INVALID (steal)"
	}
	fmt.Printf("\n== %s  seed %d  window %g s  attempt %d  steal %.2f %%  involuntary switches %d  reference round trips %d  %s\n",
		r.Name, seed, seconds, r.Attempts, r.StealPct, r.InvolCtxSwitches, r.RefSamples, valid)
	for _, m := range metricDefs {
		if v, ok := r.Metrics[m.name]; ok {
			fmt.Printf("  %-22s %14.4f %s\n", m.name, v.Value, v.Unit)
		}
	}
	for _, c := range r.Ops {
		fmt.Printf("  ops %-14s attempted %7d  succeeded %7d  failed %d\n", c.Class, c.Attempted, c.Succeeded, c.Failed)
	}
	if c := r.Coordinator; c != nil {
		fmt.Printf("  coordinator: %.3f shard requests per request, %.0f gathered bytes per read, %d retries\n",
			c.ShardRequestsPerRequest, c.GatherBytesPerRead, c.Retries)
	}
	for _, c := range r.Checks {
		mark := "ok  "
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Printf("  check %s %-26s %s\n", mark, c.Name, c.Detail)
	}
}

func traceMain(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	var t tree
	t.flags(fs)
	seed := fs.Int64("seed", 1, "input seed")
	bodies := fs.Int("bodies", 2000, "request bodies pushed through every ingest layer")
	out := fs.String("out", "", "write the spans and the derived metrics here")
	fs.Parse(args)
	if err := t.resolve(); err != nil {
		return err
	}
	return layerTrace(&t, "-seed", fmt.Sprint(*seed), "-bodies", fmt.Sprint(*bodies), "-out", *out)
}

// layerTrace builds ./layertrace — the only part of the benchmark that
// imports repro/internal, kept a separate program so that an internal
// refactor cannot stop the end-to-end runs from compiling — and runs it
// with args, its output passed through.
func layerTrace(t *tree, args ...string) error {
	bin, err := t.build(filepath.Join(t.root, "benchmark"), "./layertrace", "layertrace")
	if err != nil {
		return err
	}
	cmd := exec.Command(bin, append([]string{"-tmp", t.bin}, args...)...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	return cmd.Run()
}
