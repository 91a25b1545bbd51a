package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/benchmark/gen"
)

// manifest is the part of BENCHMARK.json the tests hold the code to.
type manifest struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// BENCHMARK.json's end_to_end list is the gated rows of metricDefs and
// its workloads are the workload table: one definition, two spellings.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	var gated []metricDef
	for _, d := range metricDefs {
		if d.gate > 0 {
			gated = append(gated, d)
		}
	}
	if len(m.EndToEnd) != len(gated) {
		t.Fatalf("BENCHMARK.json lists %d end_to_end metrics, metricDefs gates %d", len(m.EndToEnd), len(gated))
	}
	for i, d := range gated {
		e := m.EndToEnd[i]
		better := "lower"
		if d.higher {
			better = "higher"
		}
		if e.Name != d.name || e.Unit != d.unit || e.Better != better || e.Bound != d.gate {
			t.Errorf("end_to_end[%d] = %+v, metricDefs has %+v", i, e, d)
		}
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the table %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name {
			t.Errorf("workloads[%d] = %s, the table has %s", i, m.Workloads[i].Name, w.name)
		}
	}
}

// issueNames lists issue 11's sixteen end-to-end names by the workloads
// the issue puts them on.
func issueNames(w *workload) []string {
	names := []string{"setup_s", "peak_rss_mb"}
	if w.ingest {
		names = append(names, "ingest_items_per_s", "ingest_p50_ms", "ingest_p99_ms", "query_p50_ms", "query_p99_ms", "cpu_us_per_item")
	} else {
		names = append(names, "gather_small_p50_ms", "gather_small_p90_ms", "gather_large_p50_ms", "snapshot_full_p50_ms", "snapshot_slim_p50_ms", "reads_per_s", "cpu_ms_per_read")
	}
	if w.durable {
		names = append(names, "recovery_s")
	}
	return names
}

// TestSmoke runs every workload for a second against a freshly built
// sketchd, and the layer trace at 50 bodies: every metric BENCHMARK.json
// names must be emitted, no request may fail and every check must hold.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs sketchd")
	}
	m := readManifest(t)
	dir := t.TempDir()
	bins := tree{bin: dir}
	sketchd, err := bins.build("..", "./cmd/sketchd", "sketchd")
	if err != nil {
		t.Fatal(err)
	}

	self, err := bins.build(".", ".", "loadgen") // for the reference server
	if err != nil {
		t.Fatal(err)
	}

	cfg := runConfig{
		sketchd: sketchd,
		self:    self,
		tmp:     dir,
		in:      gen.New(1, gen.Bodies),
		seconds: time.Second,
		warmup:  200 * time.Millisecond,
		setups:  1,
	}
	for _, w := range workloads {
		res, err := runOnce(w, cfg) // not runWorkload: a noisy host must not repeat it
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, e := range m.EndToEnd {
			if v, ok := res.Metrics[e.Name]; !ok || !(v.Value > 0) || v.Unit != e.Unit {
				t.Errorf("%s: %s = %+v, want a positive value in %s", w.name, e.Name, v, e.Unit)
			}
		}
		for _, name := range issueNames(w) {
			if v, ok := res.Metrics[name]; !ok || !(v.Value > 0) {
				t.Errorf("%s: issue 11's %s = %+v, want a positive value", w.name, name, v)
			}
		}
		if _, failed := res.counts(); failed != 0 {
			t.Errorf("%s: %d requests failed", w.name, failed)
		}
		if len(res.Checks) == 0 {
			t.Errorf("%s: no correctness check ran", w.name)
		}
		for _, c := range res.Checks {
			if !c.OK {
				t.Errorf("%s: check %s: %s", w.name, c.Name, c.Detail)
			}
		}
	}

	layertrace, err := bins.build(".", "./layertrace", "layertrace")
	if err != nil {
		t.Fatal(err)
	}
	spans := filepath.Join(dir, "trace.json")
	out, err := exec.Command(layertrace, "-bodies", "50", "-tmp", dir, "-out", spans).Output()
	if err != nil {
		t.Fatalf("layertrace: %v\n%s", err, out)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var last struct {
		Correct bool
		Failed  int
		Metrics map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatalf("layertrace's last line: %v", err)
	}
	if !last.Correct || last.Failed != 0 {
		t.Errorf("layertrace: correct %v, %d calls failed", last.Correct, last.Failed)
	}
	if len(last.Metrics) != len(m.PerLayer) {
		t.Errorf("layertrace emits %d metrics, BENCHMARK.json lists %d per_layer", len(last.Metrics), len(m.PerLayer))
	}
	for _, p := range m.PerLayer {
		if v, ok := last.Metrics[p.Name]; !ok || v.Unit != p.Unit {
			t.Errorf("per_layer %s (%s): layertrace emitted %+v", p.Name, p.Unit, v)
		}
	}
	if st, err := os.Stat(spans); err != nil || st.Size() == 0 {
		t.Errorf("layertrace wrote no span file: %v", err)
	}
}
