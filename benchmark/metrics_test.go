package main

import (
	"math"
	"testing"
)

func TestPercentileIsNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		sorted []float64
		p      float64
		want   float64
	}{
		{ten, 50, 5},
		{ten, 90, 9},
		{ten, 91, 10},
		{ten, 99, 10},
		{ten, 100, 10},
		{ten, 0, 1},
		{ten, 10, 1},
		{ten, 10.1, 2},
		{[]float64{7}, 99, 7},
		{[]float64{1, 2, 3}, 50, 2},
	} {
		if got := percentile(c.sorted, c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.sorted, c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

// Reference values from Python: statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		values []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3.5, 1.25, 9, 4, 4, 7.5, 2}, 2, 7.5},
	} {
		q1, q3 := quartiles(c.values)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.values, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdictUsesTheLargerOfBoundAndFloor(t *testing.T) {
	lower := metricDef{bound: 0.10}
	higher := metricDef{bound: 0.10, higher: true}
	floored := metricDef{bound: 0.25, floor: 0.2}
	for _, c := range []struct {
		m          metricDef
		base, cand float64
		want       string
	}{
		{lower, 100, 109, "within"},
		{lower, 100, 111, "worse"},
		{lower, 100, 91, "within"},
		{lower, 100, 89, "better"},
		{higher, 100, 91, "within"},
		{higher, 100, 89, "worse"},
		{higher, 100, 111, "better"},
		// 25 % of 0.04 s is 0.01 s, but 0.2 s is always tolerated.
		{floored, 0.04, 0.23, "within"},
		{floored, 0.04, 0.25, "worse"},
		// Past 0.8 s the relative bound is the larger one.
		{floored, 2, 2.4, "within"},
		{floored, 2, 2.6, "worse"},
		{lower, 0, 5, "invalid"},
		{lower, math.NaN(), 5, "invalid"},
		{lower, 5, math.NaN(), "invalid"},
	} {
		if got := c.m.verdict(c.base, c.cand); got != c.want {
			t.Errorf("%+v.verdict(%g, %g) = %s, want %s", c.m, c.base, c.cand, got, c.want)
		}
	}
}

func TestCompareJudgesMediansAndNoiseGuard(t *testing.T) {
	file := func(valid bool, ops float64) *resultFile {
		return &resultFile{Workloads: []workloadSummary{{
			Name: "ingest_mem", Valid: valid,
			Metrics: map[string]metricSummary{"ops_per_s": {Unit: "1/s", Median: ops}},
		}}}
	}
	verdicts := func(base, cand *resultFile) []string {
		var out []string
		for _, r := range compareResults(base, cand) {
			out = append(out, r.metric+"="+r.verdict)
		}
		return out
	}
	for _, c := range []struct {
		base, cand *resultFile
		want       string
	}{
		{file(true, 4000), file(true, 3900), "ops_per_s=within"},
		{file(true, 4000), file(true, 2900), "ops_per_s=worse"},
		{file(true, 4000), file(false, 2900), "ops_per_s=invalid"},
		{file(true, 4000), &resultFile{}, "ops_per_s=invalid"},
	} {
		got := verdicts(c.base, c.cand)
		if len(got) != 1 || got[0] != c.want {
			t.Errorf("compare = %v, want [%s]", got, c.want)
		}
	}
}
