package lsh

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/randx"
)

// setPair builds two sets with a target Jaccard similarity.
func setPair(jaccard float64, size int, seed uint64) ([]string, []string) {
	shared := int(jaccard * float64(size) * 2 / (1 + jaccard))
	only := size - shared
	var a, b []string
	for i := 0; i < shared; i++ {
		e := fmt.Sprintf("shared-%d-%d", seed, i)
		a = append(a, e)
		b = append(b, e)
	}
	for i := 0; i < only; i++ {
		a = append(a, fmt.Sprintf("a-%d-%d", seed, i))
		b = append(b, fmt.Sprintf("b-%d-%d", seed, i))
	}
	return a, b
}

// trueJaccard computes the exact similarity of the generated pair.
func trueJaccard(a, b []string) float64 {
	set := map[string]bool{}
	for _, e := range a {
		set[e] = true
	}
	inter := 0
	for _, e := range b {
		if set[e] {
			inter++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

func TestMinHashSimilarityEstimate(t *testing.T) {
	for _, target := range []float64{0.1, 0.5, 0.9} {
		a, b := setPair(target, 2000, 1)
		want := trueJaccard(a, b)
		ma := NewMinHash(512, 7)
		mb := NewMinHash(512, 7)
		for _, e := range a {
			ma.AddString(e)
		}
		for _, e := range b {
			mb.AddString(e)
		}
		got, err := ma.Similarity(mb)
		if err != nil {
			t.Fatal(err)
		}
		sigma := 1 / math.Sqrt(512)
		if math.Abs(got-want) > 5*sigma {
			t.Errorf("target %.1f: estimate %.3f vs true %.3f", target, got, want)
		}
	}
}

func TestMinHashIdenticalSets(t *testing.T) {
	a := NewMinHash(128, 2)
	b := NewMinHash(128, 2)
	for i := 0; i < 100; i++ {
		e := fmt.Sprint(i)
		a.AddString(e)
		b.AddString(e)
	}
	if s, _ := a.Similarity(b); s != 1 {
		t.Errorf("identical sets similarity %.3f", s)
	}
}

func TestMinHashMergeIsUnion(t *testing.T) {
	a := NewMinHash(256, 3)
	b := NewMinHash(256, 3)
	u := NewMinHash(256, 3)
	for i := 0; i < 500; i++ {
		e := fmt.Sprintf("a%d", i)
		a.AddString(e)
		u.AddString(e)
	}
	for i := 0; i < 500; i++ {
		e := fmt.Sprintf("b%d", i)
		b.AddString(e)
		u.AddString(e)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	for i := range a.Signature() {
		if a.Signature()[i] != u.Signature()[i] {
			t.Fatal("merge is not the union signature")
		}
	}
	if err := a.Merge(NewMinHash(128, 3)); !errors.Is(err, core.ErrIncompatible) {
		t.Error("merge across shapes must fail")
	}
}

func TestMinHashSerialization(t *testing.T) {
	m := NewMinHash(64, 4)
	for i := 0; i < 100; i++ {
		m.AddString(fmt.Sprint(i))
	}
	data, _ := m.MarshalBinary()
	var g MinHash
	if err := g.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if s, _ := g.Similarity(m); s != 1 {
		t.Error("round trip changed signature")
	}
}

func TestIndexRecallCurve(t *testing.T) {
	// E11: similar pairs must be retrieved with high probability,
	// dissimilar pairs rarely — matching the analytic S-curve shape.
	const bands, rows = 32, 4
	ix := NewIndex(bands, rows)
	// Index one element of each pair; query with the other.
	type probe struct {
		id  string
		sim float64
		sig *MinHash
	}
	var probes []probe
	for i, target := range []float64{0.9, 0.8, 0.3, 0.1} {
		for rep := 0; rep < 20; rep++ {
			seed := uint64(i*100 + rep)
			a, b := setPair(target, 500, seed)
			ma := NewMinHash(bands*rows, 42)
			mb := NewMinHash(bands*rows, 42)
			for _, e := range a {
				ma.AddString(e)
			}
			for _, e := range b {
				mb.AddString(e)
			}
			id := fmt.Sprintf("item-%d-%d", i, rep)
			if err := ix.Add(id, ma); err != nil {
				t.Fatal(err)
			}
			probes = append(probes, probe{id, trueJaccard(a, b), mb})
		}
	}
	recallHigh, totalHigh := 0, 0
	candLow, totalLow := 0, 0
	for _, p := range probes {
		cands := ix.Candidates(p.sig)
		found := false
		for _, c := range cands {
			if c == p.id {
				found = true
				break
			}
		}
		if p.sim >= 0.75 {
			totalHigh++
			if found {
				recallHigh++
			}
		}
		if p.sim <= 0.15 {
			totalLow++
			if found {
				candLow++
			}
		}
	}
	if totalHigh == 0 || totalLow == 0 {
		t.Fatal("probe construction broken")
	}
	if float64(recallHigh)/float64(totalHigh) < 0.9 {
		t.Errorf("high-similarity recall %d/%d too low", recallHigh, totalHigh)
	}
	if float64(candLow)/float64(totalLow) > 0.3 {
		t.Errorf("low-similarity candidate rate %d/%d too high", candLow, totalLow)
	}
}

func TestIndexQueryVerifies(t *testing.T) {
	ix := NewIndex(16, 4)
	a, b := setPair(0.85, 400, 9)
	ma := NewMinHash(64, 5)
	mb := NewMinHash(64, 5)
	for _, e := range a {
		ma.AddString(e)
	}
	for _, e := range b {
		mb.AddString(e)
	}
	if err := ix.Add("target", ma); err != nil {
		t.Fatal(err)
	}
	got := ix.Query(mb, 0.5)
	if len(got) != 1 || got[0] != "target" {
		t.Errorf("Query = %v", got)
	}
	if got := ix.Query(mb, 0.99); len(got) != 0 {
		t.Errorf("Query with impossible threshold returned %v", got)
	}
	if len(ix.sigs) != 1 {
		t.Errorf("Len = %d", len(ix.sigs))
	}
	if err := ix.Add("bad", NewMinHash(32, 5)); !errors.Is(err, core.ErrIncompatible) {
		t.Error("wrong-length signature accepted")
	}
}

func TestIndexSCurve(t *testing.T) {
	ix := NewIndex(20, 5)
	if p := ix.CandidateProbability(0); p != 0 {
		t.Errorf("P(0) = %v", p)
	}
	if p := ix.CandidateProbability(1); p != 1 {
		t.Errorf("P(1) = %v", p)
	}
	if ix.CandidateProbability(0.9) <= ix.CandidateProbability(0.3) {
		t.Error("S-curve not increasing")
	}
}

func TestSimHashCosineEstimate(t *testing.T) {
	const d, bitsN = 100, 64
	sh := NewSimHash(d, bitsN, 11)
	rng := randx.New(12)
	// Build vector pairs at controlled angles.
	for _, cosTarget := range []float64{0.95, 0.5, 0.0} {
		var meanEst float64
		const trials = 40
		for trial := 0; trial < trials; trial++ {
			a := make([]float64, d)
			noise := make([]float64, d)
			for i := range a {
				a[i] = rng.Normal()
				noise[i] = rng.Normal()
			}
			// b = cos·a/|a| + sin·n⊥/|n⊥| built via Gram–Schmidt.
			proj := dot(noise, a) / dot(a, a)
			for i := range noise {
				noise[i] -= proj * a[i]
			}
			na, nn := math.Sqrt(dot(a, a)), math.Sqrt(dot(noise, noise))
			sinTarget := math.Sqrt(1 - cosTarget*cosTarget)
			b := make([]float64, d)
			for i := range b {
				b[i] = cosTarget*a[i]/na + sinTarget*noise[i]/nn
			}
			meanEst += sh.Similarity(sh.Hash(a), sh.Hash(b))
		}
		meanEst /= trials
		if math.Abs(meanEst-cosTarget) > 0.12 {
			t.Errorf("cos target %.2f: mean estimate %.3f", cosTarget, meanEst)
		}
	}
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func TestSimHashIdentical(t *testing.T) {
	sh := NewSimHash(10, 32, 1)
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if sh.Similarity(sh.Hash(x), sh.Hash(x)) != 1 {
		t.Error("identical vectors must have similarity 1")
	}
}

func TestEuclideanLSHCloserCollidesMore(t *testing.T) {
	const d = 20
	e := NewEuclideanLSH(d, 1, 4.0, 13)
	rng := randx.New(14)
	collisions := func(dist float64) int {
		hits := 0
		const trials = 2000
		for trial := 0; trial < trials; trial++ {
			a := make([]float64, d)
			b := make([]float64, d)
			dir := make([]float64, d)
			var norm float64
			for i := range a {
				a[i] = rng.Normal() * 10
				dir[i] = rng.Normal()
				norm += dir[i] * dir[i]
			}
			norm = math.Sqrt(norm)
			for i := range b {
				b[i] = a[i] + dir[i]/norm*dist
			}
			if e.Hash(a) == e.Hash(b) {
				hits++
			}
		}
		return hits
	}
	near, far := collisions(0.5), collisions(8.0)
	if near <= far {
		t.Errorf("near collisions %d not more than far %d", near, far)
	}
	if near < 1200 {
		t.Errorf("near pairs collide too rarely: %d/2000", near)
	}
}

func TestEuclideanCollisionProbabilityFormula(t *testing.T) {
	e := NewEuclideanLSH(2, 1, 4.0, 1)
	if p := e.CollisionProbability(0); p != 1 {
		t.Errorf("P(0) = %v", p)
	}
	if e.CollisionProbability(1) <= e.CollisionProbability(10) {
		t.Error("collision probability must decrease with distance")
	}
	for _, c := range []float64{0.5, 2, 8} {
		p := e.CollisionProbability(c)
		if p < 0 || p > 1 {
			t.Errorf("P(%v) = %v out of range", c, p)
		}
	}
}

func TestPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"minhash":   func() { NewMinHash(0, 1) },
		"index":     func() { NewIndex(0, 4) },
		"simhash":   func() { NewSimHash(5, 65, 1) },
		"euclidean": func() { NewEuclideanLSH(5, 2, 0, 1) },
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
}

func BenchmarkMinHashAdd(b *testing.B) {
	m := NewMinHash(128, 1)
	item := []byte("benchmark-element")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Add(item)
	}
}

func BenchmarkSimHash(b *testing.B) {
	sh := NewSimHash(128, 64, 1)
	x := make([]float64, 128)
	for i := range x {
		x[i] = float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh.Hash(x)
	}
}
