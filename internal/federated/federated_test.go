package federated

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/randx"
)

func TestMasksCancelExactly(t *testing.T) {
	const cohort, dim = 16, 32
	agg := NewSecureAggregator(cohort, dim, 1)
	rng := randx.New(2)
	want := make([]float64, dim)
	uploads := make([][]float64, cohort)
	for id := 0; id < cohort; id++ {
		vec := make([]float64, dim)
		for c := range vec {
			vec[c] = rng.Float64() * 10
			want[c] += vec[c]
		}
		uploads[id] = agg.Mask(id, vec)
	}
	sum, err := agg.Aggregate(uploads)
	if err != nil {
		t.Fatal(err)
	}
	for c := range sum {
		if math.Abs(sum[c]-want[c]) > 1e-4 {
			t.Fatalf("cell %d: aggregated %.6f vs true %.6f", c, sum[c], want[c])
		}
	}
}

func TestUploadsHideIndividualValues(t *testing.T) {
	// A single upload must be dominated by mask noise: the plaintext
	// (values ~1) should be statistically invisible under masks of
	// scale 1e6.
	agg := NewSecureAggregator(8, 16, 3)
	vec := make([]float64, 16)
	vec[3] = 1
	up := agg.Mask(0, vec)
	small := 0
	for _, v := range up {
		if math.Abs(v) < 1000 {
			small++
		}
	}
	if small > 2 {
		t.Errorf("%d/16 cells of a masked upload are small — plaintext may leak", small)
	}
}

func TestDropoutRejected(t *testing.T) {
	agg := NewSecureAggregator(4, 8, 4)
	uploads := make([][]float64, 3) // one client dropped
	for i := range uploads {
		uploads[i] = agg.Mask(i, make([]float64, 8))
	}
	if _, err := agg.Aggregate(uploads); err == nil {
		t.Fatal("partial cohort accepted — masks would not cancel")
	}
	bad := make([][]float64, 4)
	for i := range bad {
		bad[i] = make([]float64, 7)
	}
	if _, err := agg.Aggregate(bad); err == nil {
		t.Fatal("wrong-dimension uploads accepted")
	}
}

func TestFrequencyRoundEndToEnd(t *testing.T) {
	const cohort = 60
	values := []string{"a", "b", "c"}
	round := NewFrequencyRound(cohort, values, 5)
	rng := randx.New(6)
	truth := map[string]float64{}
	uploads := make([][]float64, cohort)
	for id := 0; id < cohort; id++ {
		v := values[rng.Intn(3)]
		truth[v]++
		uploads[id] = round.ClientUpload(id, v)
	}
	// Without DP: exact (up to mask-cancellation rounding).
	counts, err := round.Tally(uploads, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range values {
		if math.Abs(counts[v]-truth[v]) > 1e-3 {
			t.Errorf("%s: tallied %.4f vs true %.0f", v, counts[v], truth[v])
		}
	}
	// With DP: within Laplace noise.
	noisy, err := round.Tally(uploads, 1.0, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range values {
		if math.Abs(noisy[v]-truth[v]) > 15 { // Laplace(1) tail at ~1e-6
			t.Errorf("%s: DP tally %.2f too far from %.0f", v, noisy[v], truth[v])
		}
	}
}

func TestFrequencyRoundUnknownValue(t *testing.T) {
	round := NewFrequencyRound(2, []string{"x"}, 9)
	uploads := [][]float64{
		round.ClientUpload(0, "not-a-candidate"),
		round.ClientUpload(1, "x"),
	}
	counts, err := round.Tally(uploads, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(counts["x"]-1) > 1e-3 {
		t.Errorf("count[x] = %.4f, want 1", counts["x"])
	}
}

func TestPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"cohort": func() { NewSecureAggregator(1, 4, 1) },
		"dim":    func() { NewSecureAggregator(4, 0, 1) },
		"id":     func() { NewSecureAggregator(4, 2, 1).Mask(9, make([]float64, 2)) },
		"vec":    func() { NewSecureAggregator(4, 2, 1).Mask(0, make([]float64, 3)) },
		"values": func() { NewFrequencyRound(4, nil, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
	a := NewSecureAggregator(4, 2, 1)
	if a.cohort != 4 || a.dim != 2 {
		t.Error("accessors wrong")
	}
}

func ExampleFrequencyRound() {
	const cohort = 30
	round := NewFrequencyRound(cohort, []string{"cat", "dog"}, 42)
	uploads := make([][]float64, cohort)
	for id := 0; id < cohort; id++ {
		pet := "cat"
		if id%3 == 0 {
			pet = "dog"
		}
		uploads[id] = round.ClientUpload(id, pet)
	}
	counts, _ := round.Tally(uploads, 0, 1)
	fmt.Printf("cat=%.0f dog=%.0f\n", counts["cat"], counts["dog"])
	// Output: cat=20 dog=10
}
