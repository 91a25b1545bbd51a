package experiments

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestIDsOrderedAndComplete(t *testing.T) {
	ids := IDs()
	want := []string{"E1", "E2", "E3", "E4", "E4a", "E4b", "E5", "E5a",
		"E6", "E6a", "E7", "E8", "E9", "E10", "E11", "E12", "E13",
		"E14", "E15", "E16", "E17", "E18", "E19", "E20", "E21", "E22", "E23", "E24",
		"E28", "E29", "E30", "E31", "E32", "E33"}
	if len(ids) != len(want) {
		t.Fatalf("got %d experiments %v, want %d", len(ids), ids, len(want))
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Errorf("ids[%d] = %s, want %s", i, ids[i], want[i])
		}
	}
	titles := Titles()
	for _, id := range ids {
		if titles[id] == "" {
			t.Errorf("experiment %s has no title", id)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("E999"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// checkShape requires a result with a claim and a title, and tables that
// each have a title, a header, a rule and at least one data row.
func checkShape(t *testing.T, res *Result) {
	t.Helper()
	if res.Claim == "" || res.Title == "" {
		t.Errorf("%s: missing claim or title", res.ID)
	}
	if len(res.Tables) == 0 {
		t.Errorf("%s: no tables", res.ID)
	}
	for _, tbl := range res.Tables {
		out := tbl.String()
		if !strings.HasPrefix(out, "## ") || len(strings.Split(strings.TrimSpace(out), "\n")) < 4 {
			t.Errorf("%s: table %q has no data rows:\n%s", res.ID, tbl.Title, out)
		}
	}
}

func TestCheapExperimentsProduceTables(t *testing.T) {
	// Run the fast experiments end to end and sanity-check the output
	// structure (the full sweep below is skipped under -short).
	for _, id := range []string{"E1", "E3", "E5a", "E11", "E12"} {
		res, err := Run(id)
		if err != nil {
			t.Fatal(err)
		}
		if res.ID != id {
			t.Errorf("Run(%s) returned %s", id, res.ID)
		}
		checkShape(t, res)
	}
}

// printsTimings names the experiments whose output holds a clock
// reading, so differs from run to run: they have no golden, and their
// exact bars are what the sweep holds them to, so each must state one.
var printsTimings = map[string]bool{"E28": true, "E29": true, "E31": true}

// reduced runs, in the sweep, an experiment whose registered size is
// there for its timings alone, at a size that keeps its bars and table
// shape. At full size E28's past-L3 tables take about 25 s on 2 vCPU;
// sketchbench, and so CI's bench-smoke, runs them full.
var reduced = map[string]func() *Result{
	"E28": func() *Result { return runE28(64_000) },
}

// TestRunAllExperimentsEndToEnd is the E-series as a test suite: every
// experiment runs once, as a subtest of its id (-run
// 'TestRunAllExperimentsEndToEnd/E33$' runs one), those in reduced at
// their reduced size, and must produce well-formed tables and meet
// every one of its bars. One that prints timings must state a bar;
// every other must print exactly its testdata/<id>.golden, what
// sketchbench printed at the commit that recorded it less the "(…
// completed in …)" line. The experiments are seeded, so a refactor that moves a
// measured-against-theory cell fails here with the new output. Skipped
// under -short.
func TestRunAllExperimentsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			var res *Result
			var err error
			if run := reduced[id]; run != nil {
				res = run()
			} else if res, err = Run(id); err != nil {
				t.Fatal(err)
			}
			checkShape(t, res)
			for _, claim := range res.Unmet() {
				t.Errorf("bar not met: %s", claim)
			}
			want, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
			switch {
			case printsTimings[id]:
				if err == nil {
					t.Errorf("%s prints timings but has a golden", id)
				}
				if len(res.Bars) == 0 {
					t.Errorf("%s prints timings and states no bar", id)
				}
			case err != nil:
				t.Errorf("no golden: %v", err)
			case res.String() != string(want):
				t.Errorf("output differs from testdata/%s.golden; got:\n%s", id, res)
			}
		})
	}
}

func TestUnmetReportsTheFailingBar(t *testing.T) {
	res := &Result{ID: "E0", Bars: []Bar{
		bar(true, "a bar that holds"),
		bar(false, "%d items missing, bound %d", 9, 8),
	}}
	if got := res.Unmet(); len(got) != 1 || got[0] != "9 items missing, bound 8" {
		t.Errorf("Unmet() = %q, want the one failing bar", got)
	}
	if out := res.String(); !strings.Contains(out, "acceptance: 9 items missing, bound 8 — NOT met\n") ||
		!strings.Contains(out, "acceptance: a bar that holds — met\n") {
		t.Errorf("rendered bars:\n%s", out)
	}
}

func TestIDRank(t *testing.T) {
	n, s := idRank("E4b")
	if n != 4 || s != "b" {
		t.Errorf("idRank(E4b) = %d,%q", n, s)
	}
	n, s = idRank("E16")
	if n != 16 || s != "" {
		t.Errorf("idRank(E16) = %d,%q", n, s)
	}
}

// TestE29Bars runs E29 small at GOMAXPROCS=2 and checks its exact bars
// only: the staleness bounds hold, every table has rows, and the
// ≥4-core scaling bars say they were not evaluated. No timing cell is
// read.
func TestE29Bars(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	res := runE29(20_000)
	if len(res.Tables) != 3 {
		t.Fatalf("%d tables, want 3", len(res.Tables))
	}
	checkShape(t, res)
	if len(res.Bars) != 2 {
		t.Errorf("%d bars, want the two staleness bars: %+v", len(res.Bars), res.Bars)
	}
	for _, claim := range res.Unmet() {
		t.Errorf("bar not met: %s", claim)
	}
	scaling := false
	for _, note := range res.Notes {
		if strings.HasPrefix(note, "buffered Count-Min scaling") {
			scaling = true
			if strings.Count(note, "not evaluated (GOMAXPROCS=2 < 4)") != 2 {
				t.Errorf("scaling bars evaluated at GOMAXPROCS=2: %s", note)
			}
		}
	}
	if !scaling {
		t.Error("no scaling note")
	}
}
