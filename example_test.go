package sketch_test

// Godoc examples for the facade: each compiles, runs under go test,
// and appears in the package documentation.

import (
	"fmt"

	sketch "repro"
)

func ExampleNewHLL() {
	h := sketch.NewHLL(14, 42)
	for i := 0; i < 500000; i++ {
		h.AddString(fmt.Sprintf("user-%d", i%100000))
	}
	est := h.Estimate()
	fmt.Println(est > 98000 && est < 102000)
	// Output: true
}

func ExampleHLLSketch_Merge() {
	east := sketch.NewHLL(12, 7)
	west := sketch.NewHLL(12, 7)
	for i := 0; i < 60000; i++ {
		east.AddUint64(uint64(i))
		west.AddUint64(uint64(i + 30000)) // half the users overlap
	}
	if err := east.Merge(west); err != nil {
		panic(err)
	}
	est := east.Estimate()
	fmt.Println(est > 85000 && est < 95000)
	// Output: true
}

func ExampleNewCountMin() {
	cm := sketch.NewCountMin(2048, 5, 1)
	for i := 0; i < 1000; i++ {
		cm.AddString("popular")
	}
	cm.AddString("rare")
	fmt.Println(cm.Estimate([]byte("popular")) >= 1000)
	fmt.Println(cm.Estimate([]byte("rare")) >= 1)
	// Output:
	// true
	// true
}

func ExampleNewSpaceSaving() {
	ss := sketch.NewSpaceSaving(16)
	for i := 0; i < 900; i++ {
		ss.Add("hot", 1)
	}
	for i := 0; i < 100; i++ {
		ss.Add(fmt.Sprintf("cold-%d", i), 1)
	}
	top := ss.Entries()[0]
	fmt.Println(top.Item, top.Count >= 900)
	// Output: hot true
}

func ExampleNewKLL() {
	kll := sketch.NewKLL(200, 3)
	for i := 1; i <= 100000; i++ {
		kll.Add(float64(i))
	}
	med := kll.Quantile(0.5)
	fmt.Println(med > 48000 && med < 52000)
	// Output: true
}

func ExampleNewBloomWithEstimates() {
	seen := sketch.NewBloomWithEstimates(10000, 0.001, 9)
	seen.AddString("alice")
	fmt.Println(seen.ContainsString("alice"), seen.ContainsString("bob"))
	// Output: true false
}

func ExampleNewTheta() {
	a := sketch.NewTheta(4096, 5)
	b := sketch.NewTheta(4096, 5)
	for i := 0; i < 60000; i++ {
		a.AddUint64(uint64(i)) // A = [0, 60k)
	}
	for i := 40000; i < 100000; i++ {
		b.AddUint64(uint64(i)) // B = [40k, 100k)
	}
	inter, err := a.Intersect(b)
	if err != nil {
		panic(err)
	}
	est := inter.Estimate() // true overlap: 20k
	fmt.Println(est > 17000 && est < 23000)
	// Output: true
}

func ExampleNewREQ() {
	req := sketch.NewREQ(32, 11)
	for i := 1; i <= 200000; i++ {
		req.Add(float64(i))
	}
	p999 := req.Quantile(0.999)
	fmt.Println(p999 > 199000 && p999 <= 200000)
	// Output: true
}

func ExampleNewMinHash() {
	a := sketch.NewMinHash(256, 13)
	b := sketch.NewMinHash(256, 13)
	for i := 0; i < 1000; i++ {
		a.AddString(fmt.Sprint(i))
		b.AddString(fmt.Sprint(i + 500)) // 1/3 Jaccard similarity
	}
	sim, err := a.Similarity(b)
	if err != nil {
		panic(err)
	}
	fmt.Println(sim > 0.2 && sim < 0.47)
	// Output: true
}

func ExampleNewMorris() {
	m := sketch.NewMorrisBase(1.01, 17) // base near 1: tight estimates
	m.IncrementN(1000000)
	est := m.Count()
	fmt.Println(est > 800000 && est < 1250000)
	// Output: true
}

func ExampleNewEH() {
	eh := sketch.NewEH(100, 16) // last 100 ticks, ~6% error
	for ts := uint64(1); ts <= 1000; ts++ {
		eh.Tick(ts)
		eh.Add()
	}
	c := eh.Count() // ~100 events in the window
	fmt.Println(c > 90 && c < 110)
	// Output: true
}

func ExampleNewGraphSketch() {
	g := sketch.NewGraphSketch(6, 8, 19)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	fmt.Println(g.Connected(0, 2), g.Connected(0, 3))
	// Output: true false
}

func ExampleNewDPCountMin() {
	dp := sketch.NewDPCountMin(2048, 5, 1.0, 21)
	for i := 0; i < 10000; i++ {
		dp.AddString(fmt.Sprintf("item-%d", i%10))
	}
	dp.Release(23) // adds calibrated Laplace noise; further updates panic
	est, err := dp.EstimateString("item-3")
	if err != nil {
		panic(err)
	}
	fmt.Println(est > 900 && est < 1100) // true count 1000 ± noise
	// Output: true
}
