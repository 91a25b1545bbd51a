package graphsketch

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/randx"
)

// exactComponents computes ground-truth components by union-find.
func exactComponents(n int, edges [][2]int) []int {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range edges {
		ra, rb := find(e[0]), find(e[1])
		if ra != rb {
			parent[ra] = rb
		}
	}
	out := make([]int, n)
	for i := range out {
		out[i] = find(i)
	}
	return out
}

// componentsAgree checks two component labelings induce the same
// partition.
func componentsAgree(a, b []int) bool {
	mapping := map[int]int{}
	reverse := map[int]int{}
	for i := range a {
		if m, ok := mapping[a[i]]; ok {
			if m != b[i] {
				return false
			}
		} else {
			mapping[a[i]] = b[i]
		}
		if r, ok := reverse[b[i]]; ok {
			if r != a[i] {
				return false
			}
		} else {
			reverse[b[i]] = a[i]
		}
	}
	return true
}

func countComponents(labels []int) int {
	seen := map[int]bool{}
	for _, l := range labels {
		seen[l] = true
	}
	return len(seen)
}

func TestPathGraphConnected(t *testing.T) {
	const n = 64
	s := New(n, 10, 1)
	var edges [][2]int
	for i := 0; i < n-1; i++ {
		s.AddEdge(i, i+1)
		edges = append(edges, [2]int{i, i + 1})
	}
	if got := s.ComponentCount(); got != 1 {
		t.Errorf("path graph components = %d, want 1", got)
	}
	if !s.Connected(0, n-1) {
		t.Error("path endpoints not connected")
	}
}

func TestPlantedComponents(t *testing.T) {
	// E12 workload: several dense planted clusters, no cross edges.
	const n = 120
	const clusters = 4
	s := New(n, 12, 2)
	rng := randx.New(3)
	var edges [][2]int
	per := n / clusters
	for c := 0; c < clusters; c++ {
		base := c * per
		// Spanning path plus random intra-cluster edges.
		for i := 0; i < per-1; i++ {
			s.AddEdge(base+i, base+i+1)
			edges = append(edges, [2]int{base + i, base + i + 1})
		}
		for k := 0; k < per; k++ {
			u := base + rng.Intn(per)
			v := base + rng.Intn(per)
			if u != v {
				s.AddEdge(u, v)
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	want := exactComponents(n, edges)
	got := s.ConnectedComponents()
	if !componentsAgree(want, got) {
		t.Errorf("components disagree: want %d comps, got %d",
			countComponents(want), countComponents(got))
	}
}

func TestDynamicEdgeDeletion(t *testing.T) {
	// The linear-sketch selling point: deletions. Build a cycle, then
	// delete one edge — still connected; delete another — splits.
	const n = 32
	s := New(n, 12, 4)
	for i := 0; i < n; i++ {
		s.AddEdge(i, (i+1)%n)
	}
	s.RemoveEdge(0, 1)
	if got := s.ComponentCount(); got != 1 {
		t.Errorf("cycle minus one edge: components = %d, want 1", got)
	}
	s.RemoveEdge(10, 11)
	if got := s.ComponentCount(); got != 2 {
		t.Errorf("cycle minus two edges: components = %d, want 2", got)
	}
}

func TestIsolatedVertices(t *testing.T) {
	s := New(10, 8, 5)
	s.AddEdge(0, 1)
	s.AddEdge(2, 3)
	if got := s.ComponentCount(); got != 8 {
		t.Errorf("components = %d, want 8 (2 pairs + 6 singletons)", got)
	}
	if s.Connected(0, 2) {
		t.Error("distinct pairs reported connected")
	}
	if !s.Connected(2, 3) {
		t.Error("pair not connected")
	}
}

func TestSpanningForest(t *testing.T) {
	const n = 48
	s := New(n, 10, 6)
	rng := randx.New(7)
	var edges [][2]int
	// Random connected graph: spanning path + extras.
	for i := 0; i < n-1; i++ {
		s.AddEdge(i, i+1)
		edges = append(edges, [2]int{i, i + 1})
	}
	for k := 0; k < n; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			s.AddEdge(u, v)
			edges = append(edges, [2]int{u, v})
		}
	}
	forest := s.SpanningForest()
	if len(forest) != n-1 {
		t.Fatalf("spanning forest has %d edges, want %d", len(forest), n-1)
	}
	// Every forest edge must be a real edge of the graph.
	real := map[[2]int]bool{}
	for _, e := range edges {
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		real[[2]int{u, v}] = true
	}
	for _, e := range forest {
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		if !real[[2]int{u, v}] {
			t.Fatalf("forest edge {%d,%d} is not a graph edge", u, v)
		}
	}
	// The forest must connect everything.
	if countComponents(exactComponents(n, forest)) != 1 {
		t.Error("forest does not span the graph")
	}
}

// TestAnswersAreReplayable pins that the forest and the component
// labels are a function of the sketch alone: two identically built
// sketches, and repeated calls on one, give the same answers.
func TestAnswersAreReplayable(t *testing.T) {
	const n = 64
	build := func() *Sketch {
		s := New(n, 10, 9)
		rng := randx.New(10)
		for i := 0; i+1 < n; i += 2 {
			s.AddEdge(i, i+1)
		}
		for k := 0; k < n; k++ {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				s.AddEdge(u, v)
			}
		}
		return s
	}
	a, b := build(), build()
	forest, labels := fmt.Sprint(a.SpanningForest()), fmt.Sprint(a.ConnectedComponents())
	for i, s := range []*Sketch{a, b, a, b, a, b, a, b} {
		if got := fmt.Sprint(s.SpanningForest()); got != forest {
			t.Fatalf("call %d: forest %s, first call %s", i, got, forest)
		}
		if got := fmt.Sprint(s.ConnectedComponents()); got != labels {
			t.Fatalf("call %d: labels %s, first call %s", i, got, labels)
		}
	}
}

func TestMergeEdgeStreams(t *testing.T) {
	// Two sketches over disjoint edge sets merge into the union graph.
	const n = 40
	a := New(n, 10, 8)
	b := New(n, 10, 8)
	for i := 0; i < n/2-1; i++ {
		a.AddEdge(i, i+1)
	}
	for i := n / 2; i < n-1; i++ {
		b.AddEdge(i, i+1)
	}
	// Bridge lives in stream b.
	b.AddEdge(n/2-1, n/2)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if got := a.ComponentCount(); got != 1 {
		t.Errorf("merged graph components = %d, want 1", got)
	}
	if err := a.Merge(New(n+1, 10, 8)); !errors.Is(err, core.ErrIncompatible) {
		t.Error("merge across vertex counts must fail")
	}
}

func TestPanics(t *testing.T) {
	s := New(4, 4, 9)
	for name, fn := range map[string]func(){
		"self loop":    func() { s.AddEdge(1, 1) },
		"out of range": func() { s.AddEdge(0, 7) },
		"bad n":        func() { New(0, 4, 1) },
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

func BenchmarkAddEdge(b *testing.B) {
	s := New(1024, 8, 1)
	rng := randx.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, v := rng.Intn(1024), rng.Intn(1024)
		if u == v {
			v = (v + 1) % 1024
		}
		s.AddEdge(u, v)
	}
}

func BenchmarkConnectivity(b *testing.B) {
	const n = 128
	s := New(n, 8, 1)
	for i := 0; i < n-1; i++ {
		s.AddEdge(i, i+1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ComponentCount()
	}
}
