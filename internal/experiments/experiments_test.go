package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestIDsOrderedAndComplete(t *testing.T) {
	ids := IDs()
	want := []string{"E1", "E2", "E3", "E4", "E4a", "E4b", "E5", "E5a",
		"E6", "E6a", "E7", "E7a", "E8", "E9", "E10", "E11", "E12", "E13",
		"E14", "E15", "E16", "E17", "E18", "E19", "E20", "E21", "E22", "E23", "E24",
		"E25", "E27", "E28", "E29", "E30", "E31", "E32", "E33"}
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

func TestCheapExperimentsProduceTables(t *testing.T) {
	// Run the fast experiments end to end and sanity-check the output
	// structure (the heavy ones run via cmd/sketchbench and benches).
	for _, id := range []string{"E1", "E3", "E5a", "E7a", "E11", "E12"} {
		res, err := Run(id)
		if err != nil {
			t.Fatal(err)
		}
		if res.ID != id || res.Claim == "" || len(res.Tables) == 0 {
			t.Errorf("%s: malformed result %+v", id, res)
		}
		for _, tbl := range res.Tables {
			out := tbl.String()
			if !strings.Contains(out, "##") || len(strings.Split(out, "\n")) < 4 {
				t.Errorf("%s: table too small:\n%s", id, out)
			}
		}
	}
}

func TestRunAllExperimentsEndToEnd(t *testing.T) {
	// The full evaluation (~30s): every experiment must complete and
	// produce well-formed tables. Skipped under -short.
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	results := RunAll()
	if len(results) != len(IDs()) {
		t.Fatalf("RunAll returned %d results for %d ids", len(results), len(IDs()))
	}
	for _, res := range results {
		if res.Claim == "" || res.Title == "" {
			t.Errorf("%s: missing claim or title", res.ID)
		}
		if len(res.Tables) == 0 {
			t.Errorf("%s: no tables", res.ID)
		}
		for _, tbl := range res.Tables {
			if len(strings.Split(strings.TrimSpace(tbl.String()), "\n")) < 4 {
				t.Errorf("%s: table %q has no data rows", res.ID, tbl.Title)
			}
		}
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

func TestMutexCountMinCorrectUnderConcurrency(t *testing.T) {
	c := newMutexCountMin(512, 4, 5)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				c.AddUint64(uint64(i%50), 1)
			}
		}()
	}
	wg.Wait()
	for item := uint64(0); item < 50; item++ {
		if got := c.EstimateUint64(item); got < 800 {
			t.Errorf("item %d: estimate %d < 800", item, got)
		}
	}
}

// TestQuantileTablesGolden pins what `sketchbench -run` prints, less its
// timing line, for the experiments that read the quantile package. The
// files under testdata/ were recorded at commit 4c63857; the experiments
// are seeded, so a change to a compactor's draw order, a read or the
// t-digest pass shows up here as a diff.
func TestQuantileTablesGolden(t *testing.T) {
	for _, id := range []string{"E6", "E6a", "E7", "E17"} {
		res, err := Run(id)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "=== %s: %s\npaper claim: %s\n\n", res.ID, res.Title, res.Claim)
		for _, tbl := range res.Tables {
			fmt.Fprintln(&b, tbl.String())
		}
		for _, note := range res.Notes {
			fmt.Fprintln(&b, "note:", note)
		}
		want, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.TrimRight(b.String(), "\n") + "\n"; got != string(want) {
			t.Errorf("%s differs from testdata/%s.golden:\n%s", id, id, got)
		}
	}
}

// TestE29Bars runs E29 small at GOMAXPROCS=2 and checks its exact bars
// only: the staleness bounds hold, every table has rows, and the
// ≥4-core scaling bars say they were not evaluated. No timing cell is
// read.
func TestE29Bars(t *testing.T) {
	t.Setenv("E29_WRITER_ITEMS", "20000")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	res, err := Run("E29")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 3 {
		t.Fatalf("%d tables, want 3", len(res.Tables))
	}
	for _, tbl := range res.Tables {
		if len(strings.Split(strings.TrimSpace(tbl.String()), "\n")) < 4 {
			t.Errorf("table %q has no data rows", tbl.Title)
		}
	}
	var staleness, scaling bool
	for _, note := range res.Notes {
		if strings.Contains(note, "NOT met") {
			t.Errorf("bar not met: %s", note)
		}
		if strings.HasPrefix(note, "mid-ingest staleness") {
			staleness = true
			if !strings.Contains(note, "(met)") || !strings.HasSuffix(note, "exact after flush+sync: met") {
				t.Errorf("staleness bounds: %s", note)
			}
		}
		if strings.HasPrefix(note, "buffered Count-Min scaling") {
			scaling = true
			if strings.Count(note, "not evaluated (GOMAXPROCS=2 < 4)") != 2 {
				t.Errorf("scaling bars evaluated at GOMAXPROCS=2: %s", note)
			}
		}
	}
	if !staleness || !scaling {
		t.Errorf("staleness note found = %v, scaling note found = %v", staleness, scaling)
	}
}
