package registry

// The Mergeable-Summaries contract — update, merge, serialize, "merge in
// any order" — stated once: one row per registered family declares what
// the family promises, one fixture builds family × layout × variant ×
// regime cells over seeded streams, and each law is a function of a cell.
// A descriptor without a row fails TestLaws, so a family cannot be added
// without declaring. The table lives in the test tree: production asks
// the two questions it needs (Bind.Merge != nil, MergeWire != nil)
// of the descriptor itself.

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"net/url"
	"path"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mergex"
)

// union is what Merge promises against the sketch of the whole stream.
type union int

const (
	noMerge union = iota // Bind.Merge is nil
	bounded              // the merged answer is inside the family's bound of the whole stream's truth
	assoc                // bounded, and every fold order gives the same bytes — not the one-stream bytes
	exact                // Marshal(Merge(S(A), S(B))) is Marshal(S(A‖B)): commutative, associative, the union
)

// oneSided is the direction a family's point answers never err in.
type oneSided int

const (
	twoSided oneSided = iota
	neverUnder
	noFalseNegative
)

// lawRow is what one family promises.
type lawRow struct {
	union      union
	idempotent bool // Merge(x, copy of x) leaves x's bytes alone
	seedBinds  bool // the seed addresses cells: a peer under another seed is refused (else it only drives coins)
	oneSided   oneSided
	wireOnly   bool // no ingest: decodes and answers, is not servable

	// compact is the shape the "below" regime runs at, small enough to cut
	// its envelope at every length; saturating (compact when nil) is one
	// the "past" regime's stream overflows, so that trimming, eviction,
	// compaction and replacement all happen.
	compact, saturating map[string]float64

	query url.Values // the probe whose answer laws compare
	// loose are the answer keys that depend on arrival order — compaction
	// and eviction order, an RNG drawn per arrival, the SF slim raise
	// reading the fat stage, a read that burns a copy — held to the
	// family's bound in checkBounded; every other key equals the
	// one-stream run's. A family with a loose key has no one serial run
	// for a concurrent one to equal, whatever its union.
	loose []string
}

var (
	median = url.Values{"q": {"0.5"}}
	ofK3   = url.Values{"item": {"k3"}}
)

type shape = map[string]float64

// lawRows: 17 exact (8 of them idempotent), sfsketch associative, 10
// bounded, 2 that do not merge, and the two wire-only descriptors.
var lawRows = map[string]lawRow{
	"ams":            {union: exact, seedBinds: true, compact: shape{"groups": 3, "per_group": 8}},
	"blockedbloom":   {union: exact, seedBinds: true, oneSided: noFalseNegative, compact: shape{"m": 2048, "k": 3}, saturating: shape{"m": 512, "k": 3}, query: ofK3},
	"bloom":          {union: exact, seedBinds: true, oneSided: noFalseNegative, compact: shape{"m": 1000, "k": 3}, saturating: shape{"m": 256, "k": 3}, query: ofK3},
	"countingbloom":  {union: exact, seedBinds: true, oneSided: noFalseNegative, compact: shape{"m": 512, "k": 3}, saturating: shape{"m": 64, "k": 3}, query: ofK3},
	"countmin":       {union: exact, seedBinds: true, oneSided: neverUnder, compact: shape{"width": 96, "depth": 5}, saturating: shape{"width": 8, "depth": 3}, query: ofK3},
	"countsketch":    {union: exact, seedBinds: true, compact: shape{"width": 96, "depth": 5}, saturating: shape{"width": 8, "depth": 3}, query: ofK3},
	"fm":             {union: exact, idempotent: true, seedBinds: true, compact: shape{"m": 16}, saturating: shape{"m": 2}},
	"graphsketch":    {union: exact, seedBinds: true, compact: shape{"vertices": 16, "rounds": 3}},
	"hll":            {union: exact, idempotent: true, seedBinds: true, compact: shape{"p": 6}, saturating: shape{"p": 4}},  // p = 4: the one register file that is not whole 3-word groups
	"hllpp":          {union: exact, idempotent: true, seedBinds: true, compact: shape{"p": 10}, saturating: shape{"p": 4}}, // sparse below, dense past
	"kmv":            {union: exact, idempotent: true, seedBinds: true, compact: shape{"k": 128}, saturating: shape{"k": 16}},
	"l0sampler":      {union: exact, seedBinds: true, compact: shape{"s": 4}, saturating: shape{"s": 1}},
	"loglog":         {union: exact, idempotent: true, seedBinds: true, compact: shape{"p": 4}},
	"minhash":        {union: exact, idempotent: true, seedBinds: true, compact: shape{"k": 16}},
	"robustdistinct": {union: exact, idempotent: true, seedBinds: true, compact: shape{"p": 8, "lambda": 3}, saturating: shape{"p": 4, "lambda": 2}, loose: []string{"estimate", "copies_used", "exhausted"}},
	"sparserecovery": {union: exact, seedBinds: true, compact: shape{"s": 4}, saturating: shape{"s": 1}},
	"theta":          {union: exact, idempotent: true, seedBinds: true, compact: shape{"k": 128}, saturating: shape{"k": 16}},

	// The slim raise reads the fat stage, so arrival order is part of the
	// state by design (Yang et al.); Merge adds both stages cell-wise.
	"sfsketch": {union: assoc, seedBinds: true, oneSided: neverUnder, compact: shape{"width": 16, "depth": 3, "ratio": 4}, saturating: shape{"width": 4, "depth": 2, "ratio": 2}, query: ofK3, loose: []string{"estimate"}},

	"gk":          {union: bounded, compact: shape{"eps": 0.02}, query: median, loose: []string{"quantile"}},
	"kll":         {union: bounded, compact: shape{"k": 64}, query: median, loose: []string{"quantile"}},
	"misragries":  {union: bounded, compact: shape{"k": 128}, saturating: shape{"k": 16}, query: ofK3, loose: []string{"estimate"}},
	"morris":      {union: bounded, compact: shape{"base": 1.02}, loose: []string{"count", "exponent"}}, // std err ≈ 10 %; 70 % at the default base 2
	"nelsonyu":    {union: bounded, loose: []string{"count"}},
	"qdigest":     {union: bounded, saturating: shape{"logu": 16, "k": 256}, query: median, loose: []string{"quantile"}},
	"req":         {union: bounded, saturating: shape{"k": 8}, query: median, loose: []string{"quantile"}},
	"reservoir":   {union: bounded, compact: shape{"k": 512}, saturating: shape{"k": 16}, loose: []string{"sample"}},
	"spacesaving": {union: bounded, compact: shape{"k": 128}, saturating: shape{"k": 16}, query: ofK3, loose: []string{"estimate", "guaranteed"}},
	"tdigest":     {union: bounded, saturating: shape{"compression": 20}, query: median, loose: []string{"quantile"}},

	"mrl":               {compact: shape{"b": 4, "k": 32}, saturating: shape{"b": 3, "k": 16}, query: median, loose: []string{"quantile"}},
	"weightedreservoir": {compact: shape{"k": 512}, saturating: shape{"k": 16}, loose: []string{"sample"}},

	"projection": {union: exact, wireOnly: true}, // cell addition; its law is TestProjectionEqualsMergedQuery
	"simhash":    {wireOnly: true, compact: shape{"d": 8, "bits": 16}},
}

// regime is one stream: how long, over how many keys. Every registry-wide
// test once drew from 40 keys, below every family's capacity.
type regime struct {
	name            string
	lines, universe int
}

var (
	below   = regime{"below", 400, 40}
	past    = regime{"past", 6000, 20000}
	regimes = []regime{below, past}
)

func (r lawRow) shape(reg regime) shape {
	if reg == past && r.saturating != nil {
		return r.saturating
	}
	return r.compact
}

// randomLines renders n well-formed lines of a kind over a key universe
// (so that the parts of a stream share keys below it and do not above),
// with and without the optional second field, with an item that holds a
// tab where a weight follows it, and with values at the edges of their
// range — the occasional weight near 2^64, so that counters and n wrap.
func randomLines(rng *rand.Rand, kind InputKind, n, universe int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		num := strconv.Itoa(rng.Intn(universe))
		key, bare := "k"+num, rng.Intn(4) == 0
		var field string
		switch kind {
		case InputWeightedItems:
			w := uint64(rng.Intn(1000))
			if rng.Intn(50) == 0 {
				w = ^uint64(0) - uint64(rng.Intn(10))
			}
			field = strconv.FormatUint(w, 10)
		case InputSignedItems:
			field = strconv.FormatInt(rng.Int63n(1<<40)-1<<39, 10)
			if rng.Intn(8) == 0 {
				field = "+" + strconv.Itoa(rng.Intn(9))
			}
		case InputWeightedFloatItems:
			field = strconv.FormatFloat(rng.Float64()*10+1e-9, 'g', -1, 64)
		case InputFloats:
			key, bare = strconv.FormatFloat(rng.NormFloat64()*1e3, 'g', -1, 64), true
		case InputUintValues:
			key, field = num, strconv.Itoa(1+rng.Intn(9))
		case InputTurnstile:
			if rng.Intn(8) == 0 {
				num = strconv.FormatUint(rng.Uint64()>>uint(rng.Intn(64)), 10)
			}
			key, field = num, strconv.Itoa(rng.Intn(19)-9)
		case InputEdges:
			u := rng.Intn(universe)
			key, field, bare = strconv.Itoa(u), strconv.Itoa((u+1+rng.Intn(universe-1))%universe), false
		default: // an item or an event is the whole line
			bare = true
		}
		if key[0] == 'k' && !bare && rng.Intn(10) == 0 {
			key = "a\tb" + key
		}
		if !bare {
			key += "\t" + field
		}
		out[i] = []byte(key)
	}
	return out
}

// truth is what a stream holds, by the kind's own reading of a line.
type truth struct {
	weight   map[string]uint64 // per item, of the kinds whose lines are items
	n        uint64            // total weight
	distinct int               // distinct whole lines
}

func truthOf(kind InputKind, lines [][]byte) truth {
	tr, seen := truth{weight: map[string]uint64{}}, map[string]bool{}
	for _, line := range lines {
		seen[string(line)] = true
		item, w := line, uint64(1)
		if tab := LastTab(line); tab >= 0 && kind == InputWeightedItems {
			item = line[:tab]
			w, _ = ParseWeight(line[tab+1:])
		}
		tr.weight[string(item)] += w
		tr.n += w
	}
	tr.distinct = len(seen)
	return tr
}

// layout is one row-hash addressing of a family, with its variants; the
// hashed-counter families have three, every other family the one.
type layout struct {
	name     string
	plain    func(Params) (any, error) // the instance a peer, and a decoded envelope, is
	variants []variant
}

func withParam(p Params, name string, v float64) Params {
	p.vals = maps.Clone(p.vals)
	p.vals[name] = v
	return p
}

func layoutsOf(d *Descriptor) []layout {
	if !d.HasParam("fused") {
		return []layout{{"", d.New, variantsOf(d)}}
	}
	fuse := func(build func(Params) (any, error)) func(Params) (any, error) {
		return func(p Params) (any, error) { return build(withParam(p, "fused", 1)) }
	}
	fused := layout{"fused", fuse(d.New), nil}
	for _, v := range variantsOf(d) {
		fused.variants = append(fused.variants, variant{v.name, fuse(v.build), v.bind})
	}
	kw := kwiseBuilders[d.Name] // the layout no creation parameter reaches
	return []layout{{"rows", d.New, variantsOf(d)}, fused, {"kwise", kw, []variant{{"plain", kw, &d.Bind}}}}
}

// fixture is a family in one layout and regime: the seeded stream, cut
// at random into 2–4 parts, and the plain sketch's envelope of each part
// and of the whole, which every variant's cell is held to.
type fixture struct {
	d      *Descriptor
	row    lawRow
	lay    layout
	reg    regime
	raw    shape
	stream [][]byte
	parts  [][][]byte
	part   [][]byte // part[i] = Marshal(S(parts[i]))
	whole  []byte   // Marshal(S(stream)), fed part by part
}

// cell is one variant of a fixture.
type cell struct {
	*fixture
	v variant
}

func (f *fixture) params(t *testing.T, seed uint64, raw shape) Params {
	t.Helper()
	p, err := f.d.Validate(seed, raw)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// universeOf is the key universe asked for, or for edges the shape's
// vertex count.
func universeOf(d *Descriptor, p Params, want int) int {
	if d.Input == InputEdges {
		return p.Int("vertices")
	}
	return want
}

const lawSeed = 7

func newFixture(t *testing.T, d *Descriptor, row lawRow, lay layout, reg regime) *fixture {
	t.Helper()
	f := &fixture{d: d, row: row, lay: lay, reg: reg, raw: row.shape(reg)}
	if !d.Servable() {
		return f
	}
	rng := rand.New(rand.NewSource(int64(d.Tag)<<8 + int64(len(lay.name)+len(reg.name))))
	f.stream = randomLines(rng, d.Input, reg.lines, universeOf(d, f.params(t, lawSeed, f.raw), reg.universe))
	if d.Input == InputWeightedItems {
		// The laws compare answers with the stream's truth: no sum may wrap.
		f.stream = slices.DeleteFunc(f.stream, func(l []byte) bool { return len(l)-LastTab(l) > 19 })
	}
	rest := f.stream
	for cuts := 1 + rng.Intn(3); cuts > 0; cuts-- {
		at := 1 + rng.Intn(len(rest)-cuts)
		f.parts, rest = append(f.parts, rest[:at]), rest[at:]
	}
	f.parts = append(f.parts, rest)
	whole := f.plainNew(t, lawSeed, f.raw)
	for _, part := range f.parts {
		f.part = append(f.part, mustMarshal(t, f.fed(t, f.plainNew(t, lawSeed, f.raw), &d.Bind, part)))
		f.fed(t, whole, &d.Bind, part)
	}
	f.whole = mustMarshal(t, whole)
	return f
}

func (f *fixture) plainNew(t *testing.T, seed uint64, raw shape) any {
	t.Helper()
	inst, err := f.lay.plain(f.params(t, seed, raw))
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func (f *fixture) fed(t *testing.T, inst any, bind *Bindings, lines [][]byte) any {
	t.Helper()
	if err := bind.Ingest(inst, lines); err != nil {
		t.Fatal(err)
	}
	return inst
}

func (f *fixture) decoded(t *testing.T, env []byte) any {
	t.Helper()
	inst, err := f.d.Decode(env)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// receiver builds the cell's variant and feeds it the given parts of the
// stream through the variant's own ingest.
func (c *cell) receiver(t *testing.T, parts ...int) any {
	t.Helper()
	inst, err := c.v.build(c.params(t, lawSeed, c.raw))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeIfOwned(inst) })
	for _, i := range parts {
		c.fed(t, inst, c.v.bind, c.parts[i])
	}
	return inst
}

// absorb merges the plain sketches of the given parts into inst.
func (c *cell) absorb(t *testing.T, inst any, parts ...int) any {
	t.Helper()
	for _, i := range parts {
		if err := c.v.bind.Merge(inst, c.decoded(t, c.part[i])); err != nil {
			t.Fatalf("merge of part %d: %v", i, err)
		}
	}
	return inst
}

func (c *cell) rest() []int {
	out := make([]int, len(c.parts)-1)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// law is one property of a cell. plainOnly laws are about the bytes and
// the plain type, which every variant marshals to (law S); the others
// run on every variant, through its own bindings.
type law struct {
	name      string
	about     string
	plainOnly bool
	applies   func(d *Descriptor, row lawRow) bool
	check     func(t *testing.T, c *cell)
}

func merges(d *Descriptor, _ lawRow) bool { return d.Servable() && d.Mergeable() }

var laws = []law{
	{"W", "Marshal∘Decode∘Marshal = Marshal; a cut or mis-tagged envelope is ErrCorrupt", true,
		func(*Descriptor, lawRow) bool { return true }, lawWire},
	{"M1", "a peer differing in one parameter merges or is ErrIncompatible, receiver unchanged; a foreign seed is refused iff seedBinds", false, merges, lawRefusals},
	{"M2", "Merge leaves its source unchanged", false, merges, lawSourceUnchanged},
	{"M3", "Merge(x, fresh) leaves x unchanged", false, merges, lawIdentity},
	{"M4", "a stream cut into parts folds to the one-stream bytes in any order, decoded or on the wire", false,
		func(d *Descriptor, r lawRow) bool { return merges(d, r) && r.union >= assoc }, lawUnion},
	{"M5", "Merge(x, copy of x) is a no-op exactly where idempotent", false, merges, lawIdempotent},
	{"M6", "the merged answer is inside the family's bound of the whole stream's truth, n exact", false,
		func(d *Descriptor, r lawRow) bool { return merges(d, r) && (r.union == bounded || r.union == assoc) }, lawBounded},
	{"O", "a one-sided family errs one way only, before and after a merge", false,
		func(d *Descriptor, r lawRow) bool { return r.oneSided != twoSided }, lawOneSided},
}

// TestLaws runs every law over every family × layout × variant × regime
// and logs the grid it ran. Law S — every serving variant fed the same
// batches holds the plain bytes — reads the same rows through the same
// fixture under the name it has always had, TestServingVariantsAgree.
func TestLaws(t *testing.T) {
	for name := range lawRows {
		if _, ok := Lookup(name); !ok {
			t.Errorf("lawRows names %s, which is not registered", name)
		}
	}
	servable := 0
	for _, d := range All() {
		row, ok := lawRows[d.Name]
		if !ok {
			t.Errorf("%s is registered and has no row in lawRows: declare what it promises", d.Name)
			continue
		}
		if (row.union == noMerge) == d.Mergeable() {
			t.Errorf("%s: union = %d, Mergeable() = %v", d.Name, row.union, d.Mergeable())
		}
		if row.wireOnly == d.Servable() {
			t.Errorf("%s: wireOnly = %v, Servable() = %v", d.Name, row.wireOnly, d.Servable())
		}
		if d.Servable() {
			servable++
		}
		t.Run(d.Name, func(t *testing.T) {
			ran := map[string]int{}
			var variants []string
			for _, reg := range regimes {
				for _, lay := range layoutsOf(d) {
					f := newFixture(t, d, row, lay, reg)
					for i, v := range lay.variants {
						c := &cell{f, v}
						vname := path.Join(lay.name, v.name)
						if !slices.Contains(variants, vname) {
							variants = append(variants, vname)
						}
						for _, l := range laws {
							if !l.applies(d, row) || l.plainOnly && i > 0 {
								continue
							}
							ran[l.name]++
							t.Run(l.name+"/"+vname+"/"+reg.name, func(t *testing.T) { l.check(t, c) })
						}
					}
				}
			}
			var grid []string
			for _, l := range laws {
				if n := ran[l.name]; n > 0 {
					grid = append(grid, fmt.Sprintf("%s×%d", l.name, n))
				}
			}
			t.Logf("%-17s {%s} × {below, past}: %s", d.Name, strings.Join(variants, ", "), strings.Join(grid, " "))
		})
	}
	if servable != 30 {
		t.Errorf("%d servable families of %d registered, want 30", servable, len(All()))
	}
	for _, l := range laws {
		t.Logf("%-2s  %s", l.name, l.about)
	}
}

// lawWire: the envelope of a fresh, a part-fed and a whole-stream sketch
// decodes to a sketch that marshals to the same bytes, as the family the
// tag names; at the compact shape every strict prefix, another family's
// tag and an unknown version are ErrCorrupt, and none panics.
func lawWire(t *testing.T, c *cell) {
	envs := [][]byte{mustMarshal(t, c.plainNew(t, lawSeed, c.raw))}
	if c.d.Servable() {
		envs = append(envs, c.part[0], c.whole)
	}
	for i, env := range envs {
		inst, d, err := Decode(env)
		if err != nil || d != c.d {
			t.Fatalf("envelope %d: Decode = %v, %v", i, d, err)
		}
		if again := mustMarshal(t, inst); !bytes.Equal(again, env) {
			t.Fatalf("envelope %d: %d bytes decode and marshal to %d other bytes", i, len(env), len(again))
		}
	}
	if c.reg != below {
		return
	}
	corrupt := func(what string, data []byte) {
		t.Helper()
		if _, err := c.d.Decode(data); !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", what, err)
		}
	}
	env := envs[len(envs)-1]
	for cut := 0; cut < len(env); cut++ {
		corrupt(fmt.Sprintf("cut to %d of %d bytes", cut, len(env)), env[:cut])
		if cut >= 4096 {
			cut += len(env) / 2048 // past 4 KB, two thousand lengths more
		}
	}
	for what, at := range map[string]int{"another family's tag": 4, "an unknown version": 5} {
		bad := slices.Clone(env)
		bad[at] ^= 0x40
		corrupt(what, bad)
	}
	// A header field of all ones — a count, a shape, the top of a sorted
	// value — is refused, or it decodes to a sketch that still works: it
	// takes lines, answers, marshals to bytes that decode, and merges with
	// that copy of itself (to no effect where idempotent) before a deadline.
	// A k of four billion is not a filter whose next add returns.
	for at := 6; at+4 <= min(len(env), 70); at += 4 {
		bad := slices.Clone(env)
		copy(bad[at:], "\xff\xff\xff\xff")
		inst, err := c.d.Decode(bad)
		if err != nil {
			if !errors.Is(err, core.ErrCorrupt) && !errors.Is(err, core.ErrIncompatible) {
				t.Fatalf("bytes %d-%d set: err = %v, want ErrCorrupt or ErrIncompatible", at, at+3, err)
			}
			continue
		}
		used := make(chan error, 1)
		go func() { used <- c.use(inst) }() // abandoned at the deadline: the test has failed by then
		select {
		case err := <-used:
			if err != nil {
				t.Errorf("bytes %d-%d set: decodes to a sketch that %v", at, at+3, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("bytes %d-%d set: decodes to a sketch that three adds, a query, a marshal and a merge do not finish on", at, at+3)
		}
	}
}

// use drives a decoded sketch as a live entry would be driven; the error
// completes "decodes to a sketch that …".
func (c *cell) use(inst any) error {
	if !c.d.Servable() {
		return nil
	}
	c.d.Bind.Ingest(inst, c.stream[:3]) // its shape is its own: it may refuse the lines
	c.d.Bind.Query(inst, nil)
	env, err := Marshal(inst)
	if err != nil {
		return fmt.Errorf("does not marshal: %v", err)
	}
	again, err := c.d.Decode(env)
	if err != nil {
		return fmt.Errorf("marshals to bytes that do not decode: %v", err)
	}
	if !c.d.Mergeable() {
		return nil
	}
	env, _ = Marshal(inst) // a digest compresses as it marshals
	if err := c.d.Bind.Merge(inst, again); err != nil {
		return fmt.Errorf("does not merge with its copy: %v", err)
	}
	if after, _ := Marshal(inst); c.row.idempotent && !bytes.Equal(after, env) {
		return errors.New("merging with its copy changes, in an idempotent family")
	}
	return nil
}

// differing returns raw with the named parameter moved to another value
// the schema and the constructor accept.
func (c *cell) differing(t *testing.T, p Param) (shape, bool) {
	v := c.params(t, lawSeed, c.raw).Float(p.Name)
	for _, cand := range []float64{v * 2, v + 1, v / 2, v - 1, p.Max, p.Min} {
		raw := maps.Clone(c.raw)
		if raw == nil {
			raw = shape{}
		}
		raw[p.Name] = cand
		if q, err := c.d.Validate(lawSeed, raw); cand != v && err == nil {
			if _, err := c.lay.plain(q); err == nil {
				return raw, true
			}
		}
	}
	return nil, false
}

// lawRefusals: whatever a peer differs in, the merge goes through or is
// refused as ErrIncompatible — as it is into the plain sketch, whatever
// the variant — and a refused merge has not touched the receiver.
func lawRefusals(t *testing.T, c *cell) {
	x, twin := c.receiver(t, 0), c.decoded(t, c.part[0])
	before := mustMarshal(t, x)
	try := func(what string, seed uint64, raw shape, mustRefuse, mustMerge bool) {
		t.Helper()
		peer := c.plainNew(t, seed, raw)
		// Two keys are inside every shape's domain.
		c.fed(t, peer, &c.d.Bind, randomLines(rand.New(rand.NewSource(1)), c.d.Input, 20, 2))
		err := c.v.bind.Merge(x, peer)
		switch plainErr := c.d.Bind.Merge(twin, peer); {
		case (err == nil) != (plainErr == nil):
			t.Fatalf("a peer under another %s: %v, and into the plain sketch: %v", what, err, plainErr)
		case err == nil && mustRefuse:
			t.Fatalf("a peer under another %s merged", what)
		case err == nil:
			before = mustMarshal(t, x)
		case !errors.Is(err, core.ErrIncompatible):
			t.Fatalf("a peer under another %s: err = %v, want ErrIncompatible or a merge", what, err)
		case mustMerge:
			t.Fatalf("a peer under another %s is refused (%v): the seed drives coins, not addresses", what, err)
		case !bytes.Equal(mustMarshal(t, x), before):
			t.Fatalf("the refused merge of a peer under another %s changed the receiver", what)
		}
	}
	for _, p := range c.d.Params {
		if raw, ok := c.differing(t, p); ok {
			try(p.Name, lawSeed, raw, false, false)
		}
	}
	try("seed", lawSeed+1, c.raw, c.row.seedBinds, !c.row.seedBinds)
}

func lawSourceUnchanged(t *testing.T, c *cell) {
	x, src := c.receiver(t, 0), c.decoded(t, c.part[1])
	if err := c.v.bind.Merge(x, src); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustMarshal(t, src), c.part[1]) {
		t.Error("Merge changed its source")
	}
}

// lawIdentity: a fresh peer — an idle shard's envelope, an empty POST
// /merge — does not perturb a live sketch; and where the merge is the
// union, a fresh receiver becomes its peer.
func lawIdentity(t *testing.T, c *cell) {
	x, fresh := c.receiver(t), c.plainNew(t, lawSeed, c.raw)
	for i, part := range c.parts { // after each part: whether a compaction is pending depends on where the stream stopped
		before := mustMarshal(t, c.fed(t, x, c.v.bind, part))
		if err := c.v.bind.Merge(x, fresh); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustMarshal(t, x), before) {
			t.Errorf("after part %d: Merge(x, fresh) changed x", i)
		}
	}
	if c.row.union == exact {
		if got := mustMarshal(t, c.absorb(t, c.receiver(t), 0)); !bytes.Equal(got, c.part[0]) {
			t.Error("Merge(fresh, y) is not y")
		}
	}
}

func lawIdempotent(t *testing.T, c *cell) {
	x := c.receiver(t, 0)
	before := mustMarshal(t, x)
	if err := c.v.bind.Merge(x, c.decoded(t, before)); err != nil {
		t.Fatal(err)
	}
	if same := bytes.Equal(mustMarshal(t, x), before); same != c.row.idempotent {
		t.Errorf("Merge(x, copy of x) left x unchanged = %v, the row says idempotent = %v", same, c.row.idempotent)
	}
}

// lawUnion: the parts' sketches fold to one state whatever the order and
// the association — into the variant fed the first part, right to left,
// as a tree, reversed, as envelopes, and as bytes where the family merges
// on the wire — and for an exact row that state is the one-stream sketch's.
func lawUnion(t *testing.T, c *cell) {
	want := c.whole
	if c.row.union == assoc {
		want = mustMarshal(t, c.absorb(t, c.decoded(t, c.part[0]), c.rest()...))
	}
	same := func(fold string, got []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Errorf("%s over %d parts: %d bytes that are not the one-stream sketch's %d", fold, len(c.parts), len(got), len(want))
		}
	}
	same("left fold into the fed variant", mustMarshal(t, c.absorb(t, c.receiver(t, 0), c.rest()...)))
	if c.v.name != "plain" {
		return // what follows is about the plain type and the bytes
	}
	merge, last := c.d.Bind.Merge, len(c.part)-1
	acc := c.decoded(t, c.part[last])
	for i := last - 1; i >= 0; i-- {
		y := c.decoded(t, c.part[i])
		if err := merge(y, acc); err != nil {
			t.Fatal(err)
		}
		acc = y
	}
	same("right fold", mustMarshal(t, acc))
	reversed := make([]any, len(c.part))
	for i, env := range c.part {
		reversed[last-i] = c.decoded(t, env)
	}
	tree, err := mergex.Tree(reversed, merge)
	if err != nil {
		t.Fatal(err)
	}
	same("reversed tree", mustMarshal(t, tree))
	clones := func() [][]byte {
		out := make([][]byte, len(c.part))
		for i, env := range c.part {
			out[i] = slices.Clone(env)
		}
		return out
	}
	m, err := MergeEnvelopes(clones())
	if err != nil {
		t.Fatal(err)
	}
	env, err := m.Envelope(nil)
	if err != nil {
		t.Fatal(err)
	}
	same("MergeEnvelopes", env)
	if c.d.MergeWire != nil {
		envs := clones()
		for _, src := range envs[1:] {
			if n, err := c.d.MergeWire(envs[0], src); n != 1 || err != nil {
				t.Fatalf("MergeWire = (%v, %v) on two current envelopes", n, err)
			}
		}
		same("MergeWire", envs[0])
	}
}

// lawBounded: the variant fed the first part and merged with the rest
// answers the probe as the one-stream sketch does, but for the keys that
// hold an order-dependent estimate, which are inside the family's bound.
func lawBounded(t *testing.T, c *cell) {
	got, err := c.v.bind.Query(c.absorb(t, c.receiver(t, 0), c.rest()...), c.row.query)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.d.Bind.Query(c.decoded(t, c.whole), c.row.query)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, c.row, got, want)
	checkBounded(t, c.d, got, want, c.stream)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// sameAnswers compares two answers key by key, the row's loose keys apart.
func sameAnswers(t *testing.T, row lawRow, got, want map[string]any) {
	t.Helper()
	for _, k := range sortedKeys(want) {
		if slices.Contains(row.loose, k) {
			continue
		}
		g, isNum := got[k].(float64)
		w, _ := want[k].(float64)
		if !reflect.DeepEqual(got[k], want[k]) && !(isNum && math.IsNaN(g) && math.IsNaN(w)) {
			t.Errorf("%s = %v, the one-stream run answers %v", k, got[k], want[k])
		}
	}
}

// lawOneSided: over the items of the stream so far, a count is never
// under the truth (in either SF stage, and a conservative Count-Min's
// is between the truth and the plain one's), a member is never denied.
func lawOneSided(t *testing.T, c *cell) {
	x := c.receiver(t, 0)
	check := func(stage string, inst any, bind *Bindings, lines [][]byte, atMost map[string]uint64) map[string]uint64 {
		t.Helper()
		mustMarshal(t, inst) // a buffered variant syncs
		tr, answers := truthOf(c.d.Input, lines), map[string]uint64{}
		items := sortedKeys(tr.weight)
		for _, item := range items[:min(len(items), 200)] {
			got, err := bind.Query(inst, url.Values{"item": {item}})
			if err != nil {
				t.Fatal(err)
			}
			if c.row.oneSided == noFalseNegative {
				if got["contains"] != true {
					t.Fatalf("%s: %q was added and contains = %v", stage, item, got["contains"])
				}
				continue
			}
			for _, key := range []string{"estimate", "fat_estimate"} {
				est, ok := got[key].(uint64)
				if ok && est < tr.weight[item] {
					t.Fatalf("%s: %s(%q) = %d under the true %d", stage, key, item, est, tr.weight[item])
				}
			}
			answers[item] = got["estimate"].(uint64)
			if most, ok := atMost[item]; ok && answers[item] > most {
				t.Fatalf("%s: estimate(%q) = %d above the plain sketch's %d", stage, item, answers[item], most)
			}
		}
		return answers
	}
	check("before the merge", x, c.v.bind, c.parts[0], nil)
	plain := check("after the merge", c.absorb(t, x, c.rest()...), c.v.bind, c.stream, nil)
	if cons, ok := c.plainNew(t, lawSeed, c.raw).(interface{ SetConservative(bool) }); ok && c.v.name == "plain" {
		cons.SetConservative(true)
		check("conservative", c.fed(t, cons, &c.d.Bind, c.stream), &c.d.Bind, c.stream, plain)
	}
}

// checkBounded holds a family's loose keys to the guarantee the family
// advertises, against the truth of the stream (every line fed, the
// merged peers' included); want is the one-stream run's answer.
func checkBounded(t *testing.T, d *Descriptor, got, want map[string]any, stream [][]byte) {
	t.Helper()
	tr := truthOf(d.Input, stream)
	within := func(key string, truth, rel float64) {
		t.Helper()
		v, ok := got[key].(float64)
		if !ok || math.Abs(v-truth) > rel*truth {
			t.Errorf("%s = %v, want within %.0f %% of %v", key, got[key], 100*rel, truth)
		}
	}
	switch d.Family {
	case "quantile": // the answer's rank in the stream is within 0.1 of the 0.5 asked for
		var v float64
		switch x := got["quantile"].(type) {
		case float64:
			v = x
		case uint64:
			v = float64(x)
		}
		var below, total float64
		for _, line := range stream {
			field, w := line, 1.0
			if tab := LastTab(line); tab >= 0 {
				field = line[:tab]
				w, _ = strconv.ParseFloat(string(line[tab+1:]), 64)
			}
			x, err := strconv.ParseFloat(string(field), 64)
			if err != nil {
				t.Fatalf("stream line %q: %v", line, err)
			}
			total += w
			if x <= v {
				below += w
			}
		}
		if rank := below / total; math.Abs(rank-0.5) > 0.1 {
			t.Errorf("the median answered, %v, has rank %.3f in the stream", got["quantile"], rank)
		}
	case "sample": // as many sampled as the one-stream run, each of them from the stream
		g, _ := got["sample"].([]string)
		w, _ := want["sample"].([]string)
		if len(g) != len(w) {
			t.Errorf("sample of %d items, the one-stream run's has %d", len(g), len(w))
		}
		seen := map[string]bool{}
		for _, line := range stream {
			seen[string(line)] = true
			if tab := LastTab(line); tab >= 0 {
				seen[string(line[:tab])] = true
			}
		}
		for _, item := range g {
			if !seen[item] {
				t.Errorf("sampled %q, which is not in the stream", item)
			}
		}
	case "counter": // every line is an event
		within("count", float64(len(stream)), 0.5) // morris at base 1.02: 5 sigma; nelsonyu eps = 0.05
	case "robust": // an HLL at p >= 8 under (1+eps)-sticky release, eps = 0.05
		within("estimate", float64(tr.distinct), 0.15)
	case "frequency":
		est, _ := got["estimate"].(uint64)
		item := tr.weight["k3"]
		switch d.Name {
		case "sfsketch": // neither stage under, in any arrival order, merged or not
			if fat, _ := got["fat_estimate"].(uint64); est < item || fat < item {
				t.Errorf("slim estimate %d, fat %d for a true %d", est, fat, item)
			}
		case "misragries": // under by at most N/(k+1), never over
			if bound := got["error_bound"].(uint64); est > item || item-est > bound {
				t.Errorf("estimate %d for a true %d, error bound %d", est, item, bound)
			}
		case "spacesaving": // a tracked item's count is never under, its guaranteed part never over
			if est != 0 && (est < item || got["guaranteed"].(uint64) > item) {
				t.Errorf("estimate %d, guaranteed %v for a true %d", est, got["guaranteed"], item)
			}
		}
	default:
		t.Fatalf("no bound for family %q: add one", d.Family)
	}
}
