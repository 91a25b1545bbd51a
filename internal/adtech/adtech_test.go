package adtech

import (
	"testing"

	"repro/internal/core"
)

// exactReach tracks ground truth with explicit sets.
type exactReach struct {
	total map[int]map[uint64]bool
	cells map[string]map[uint64]bool
}

func newExact() *exactReach {
	return &exactReach{total: map[int]map[uint64]bool{}, cells: map[string]map[uint64]bool{}}
}

func (e *exactReach) record(imp Impression) {
	if e.total[imp.CampaignID] == nil {
		e.total[imp.CampaignID] = map[uint64]bool{}
	}
	e.total[imp.CampaignID][imp.UserID] = true
	for _, kv := range [][2]string{{"region", imp.Region}, {"device", imp.Device}, {"age", imp.AgeBracket}} {
		k := cellKey(imp.CampaignID, kv[0], kv[1])
		if e.cells[k] == nil {
			e.cells[k] = map[uint64]bool{}
		}
		e.cells[k][imp.UserID] = true
	}
}

func TestGeneratorDemographicsStable(t *testing.T) {
	g := NewGenerator(100, 10000, 1)
	seen := map[uint64][3]string{}
	for i := 0; i < 50000; i++ {
		imp := g.Next()
		key := [3]string{imp.Region, imp.Device, imp.AgeBracket}
		if prev, ok := seen[imp.UserID]; ok && prev != key {
			t.Fatal("same user reported different demographics")
		}
		seen[imp.UserID] = key
	}
}

func TestReachAccuracy(t *testing.T) {
	g := NewGenerator(50, 200000, 2)
	r := NewReporter(14, 3)
	exact := newExact()
	const n = 300000
	for i := 0; i < n; i++ {
		imp := g.Next()
		r.Record(imp)
		exact.record(imp)
	}
	for _, campaign := range r.Campaigns() {
		want := float64(len(exact.total[campaign]))
		if want < 1000 {
			continue // skip tiny campaigns where discretization dominates
		}
		if err := core.RelErr(r.Reach(campaign), want); err > 0.03 {
			t.Errorf("campaign %d reach est %.0f vs true %.0f (err %.3f)",
				campaign, r.Reach(campaign), want, err)
		}
	}
}

func TestSliceReachAccuracy(t *testing.T) {
	g := NewGenerator(10, 100000, 4)
	r := NewReporter(14, 5)
	exact := newExact()
	for i := 0; i < 200000; i++ {
		imp := g.Next()
		r.Record(imp)
		exact.record(imp)
	}
	campaign := 1 // most popular under Zipf
	for _, region := range Regions {
		want := float64(len(exact.cells[cellKey(campaign, "region", region)]))
		got := r.SliceReach(campaign, "region", region)
		if want > 500 {
			if err := core.RelErr(got, want); err > 0.05 {
				t.Errorf("region %s: est %.0f vs true %.0f", region, got, want)
			}
		}
	}
}

func TestRollupMatchesTotalExactly(t *testing.T) {
	// The E14 headline: merging the per-region cells reproduces the
	// campaign total exactly — no double counting of users who appear
	// in multiple slices (impossible here since region is a function of
	// user, but the merge must equal the total sketch regardless).
	g := NewGenerator(20, 50000, 6)
	r := NewReporter(12, 7)
	for i := 0; i < 100000; i++ {
		r.Record(g.Next())
	}
	for _, campaign := range r.Campaigns() {
		total := r.Reach(campaign)
		for _, dim := range []string{"region", "device", "age"} {
			rollup, err := r.RollupReach(campaign, dim)
			if err != nil {
				t.Fatal(err)
			}
			if rollup != total {
				t.Errorf("campaign %d dim %s: rollup %.1f != total %.1f",
					campaign, dim, rollup, total)
			}
		}
	}
	if _, err := r.RollupReach(1, "nope"); err == nil {
		t.Error("unknown dimension accepted")
	}
}

func TestCombinedReachDedups(t *testing.T) {
	// Users overlap across campaigns; the combined reach must be less
	// than the sum of individual reaches but at least the max.
	g := NewGenerator(5, 20000, 8)
	r := NewReporter(13, 9)
	exactUsers := map[uint64]bool{}
	for i := 0; i < 150000; i++ {
		imp := g.Next()
		r.Record(imp)
		exactUsers[imp.UserID] = true
	}
	campaigns := r.Campaigns()
	combined, err := r.CombinedReach(campaigns...)
	if err != nil {
		t.Fatal(err)
	}
	var sum, max float64
	for _, c := range campaigns {
		reach := r.Reach(c)
		sum += reach
		if reach > max {
			max = reach
		}
	}
	if combined >= sum {
		t.Errorf("combined %.0f not below naive sum %.0f — dedup failed", combined, sum)
	}
	if combined < max {
		t.Errorf("combined %.0f below max single campaign %.0f", combined, max)
	}
	if err := core.RelErr(combined, float64(len(exactUsers))); err > 0.05 {
		t.Errorf("combined reach est %.0f vs true %d", combined, len(exactUsers))
	}
}

func TestReporterSpaceSublinear(t *testing.T) {
	g := NewGenerator(10, 500000, 10)
	r := NewReporter(12, 11)
	users := map[uint64]bool{}
	for i := 0; i < 400000; i++ {
		imp := g.Next()
		r.Record(imp)
		users[imp.UserID] = true
	}
	// Exact per-campaign sets would need >= 8 bytes per (campaign,user)
	// pair; the sketches are fixed size.
	exactBytes := len(users) * 8
	if r.SizeBytes() > exactBytes {
		t.Errorf("sketch reporter uses %d bytes >= exact %d", r.SizeBytes(), exactBytes)
	}
	if r.SketchCount() == 0 {
		t.Error("no sketches maintained")
	}
}

func TestUnknownCampaign(t *testing.T) {
	r := NewReporter(10, 1)
	if r.Reach(42) != 0 || r.SliceReach(42, "region", "eu") != 0 {
		t.Error("unknown campaign should report zero reach")
	}
}

func BenchmarkRecord(b *testing.B) {
	g := NewGenerator(100, 1000000, 1)
	r := NewReporter(14, 2)
	imps := make([]Impression, 10000)
	for i := range imps {
		imps[i] = g.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(imps[i%len(imps)])
	}
}
