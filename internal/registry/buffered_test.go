package registry

import (
	"bytes"
	"fmt"
	"net/url"
	"path"
	"reflect"
	"slices"
	"testing"

	"repro/internal/frequency"
)

// servingHolders is which holder serves which family, in the default
// mode and in the buffered one: "locked T" is a plain T behind the
// registry's holder, "buffered T" the same holder with a buffer in
// front. Changing a family's holder is an edit here.
var servingHolders = map[string][2]string{
	"ams":               {"locked *ams.Sketch", "locked *ams.Sketch"},
	"blockedbloom":      {"locked *bloom.BlockedFilter", "buffered *bloom.BlockedFilter"},
	"bloom":             {"locked *bloom.Filter", "locked *bloom.Filter"},
	"countingbloom":     {"locked *bloom.CountingFilter", "locked *bloom.CountingFilter"},
	"countmin":          {"locked *frequency.CountMin", "buffered *frequency.CountMin"},
	"countsketch":       {"locked *frequency.CountSketch", "locked *frequency.CountSketch"},
	"fm":                {"locked *cardinality.FM", "locked *cardinality.FM"},
	"gk":                {"locked *quantile.GK", "locked *quantile.GK"},
	"graphsketch":       {"locked *graphsketch.Sketch", "locked *graphsketch.Sketch"},
	"hll":               {"locked *cardinality.HLL", "buffered *cardinality.HLL"},
	"hllpp":             {"locked *cardinality.HLLPP", "locked *cardinality.HLLPP"},
	"kll":               {"locked *quantile.KLL", "locked *quantile.KLL"},
	"kmv":               {"locked *cardinality.KMV", "locked *cardinality.KMV"},
	"l0sampler":         {"locked *sample.L0Sampler", "locked *sample.L0Sampler"},
	"loglog":            {"locked *cardinality.LogLog", "locked *cardinality.LogLog"},
	"minhash":           {"locked *lsh.MinHash", "locked *lsh.MinHash"},
	"misragries":        {"locked *frequency.MisraGries", "locked *frequency.MisraGries"},
	"morris":            {"locked *counter.Morris", "locked *counter.Morris"},
	"mrl":               {"locked *quantile.MRL", "locked *quantile.MRL"},
	"nelsonyu":          {"locked *counter.NelsonYu", "locked *counter.NelsonYu"},
	"qdigest":           {"locked *quantile.QDigest", "locked *quantile.QDigest"},
	"req":               {"locked *quantile.REQ", "locked *quantile.REQ"},
	"reservoir":         {"locked *sample.Reservoir", "locked *sample.Reservoir"},
	"robustdistinct":    {"locked *robust.Distinct", "locked *robust.Distinct"},
	"sfsketch":          {"locked *frequency.SFSketch", "locked *frequency.SFSketch"},
	"spacesaving":       {"locked *frequency.SpaceSaving", "locked *frequency.SpaceSaving"},
	"sparserecovery":    {"locked *sample.SparseRecovery", "locked *sample.SparseRecovery"},
	"tdigest":           {"locked *quantile.TDigest", "locked *quantile.TDigest"},
	"theta":             {"locked *cardinality.Theta", "locked *cardinality.Theta"},
	"weightedreservoir": {"locked *sample.WeightedReservoir", "locked *sample.WeightedReservoir"},
}

// TestServingHolders: Serving builds, for every servable family and in
// either mode, the holder servingHolders names; the shims
// benchmark/layertrace calls build and drive exactly what Serving and
// Bind do.
func TestServingHolders(t *testing.T) {
	t.Parallel()
	holderOf := func(inst any) string {
		if plain, l := held(inst); l != nil && l.buf != nil {
			return fmt.Sprintf("buffered %T", plain)
		} else if l != nil {
			return fmt.Sprintf("locked %T", plain)
		}
		return fmt.Sprintf("%T", inst)
	}
	rows := 0
	for _, d := range All() {
		if d.Serve != (Lines{d}) {
			t.Errorf("%s: Serve is not Bind's Lines", d.Name)
		}
		want, ok := servingHolders[d.Name]
		if !d.Servable() {
			if ok {
				t.Errorf("%s is not servable but has a servingHolders row", d.Name)
			}
			continue
		}
		if !ok {
			t.Errorf("servable %s has no servingHolders row", d.Name)
			continue
		}
		rows++
		p, err := d.Validate(7, lawRows[d.Name].compact)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name  string
			build func(Params) (any, error)
			want  string
		}{
			{"Serving(p, false)", func(p Params) (any, error) { return d.Serving(p, false) }, want[0]},
			{"Serving(p, true)", func(p Params) (any, error) { return d.Serving(p, true) }, want[1]},
			{"ServingNew()(p)", d.ServingNew(), want[0]},
		} {
			inst, err := c.build(p)
			if err != nil {
				t.Fatal(err)
			}
			if got := holderOf(inst); got != c.want {
				t.Errorf("%s: %s built %s, want %s", d.Name, c.name, got, c.want)
			}
			closeIfOwned(inst)
		}
	}
	if rows != len(servingHolders) {
		t.Errorf("%d servable families, %d servingHolders rows", rows, len(servingHolders))
	}
}

// Buffered ingest keeps the validate-whole-batch-then-apply contract:
// a bad weight anywhere rejects the batch with no partial state.
func TestBufferedIngestValidatesBatch(t *testing.T) {
	t.Parallel()
	d, _ := Lookup("countmin")
	p, err := d.Validate(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := d.Serving(p, true)
	if err != nil {
		t.Fatal(err)
	}
	b := inst.(*locked)
	defer b.Close()
	n := func() uint64 {
		b.sync()
		b.lock()
		defer b.unlock()
		return b.inst.(*frequency.CountMin).N()
	}

	batch := [][]byte{[]byte("good\t2"), []byte("bad\tnot-a-number")}
	if _, err := d.Bind.Ingest(inst, joinLines(batch)); err == nil {
		t.Fatal("bad weight accepted")
	}
	if n := n(); n != 0 {
		t.Fatalf("partial ingest after rejected batch: n=%d", n)
	}

	if _, err := d.Bind.Ingest(inst, joinLines([][]byte{[]byte("good\t2"), []byte("plain")})); err != nil {
		t.Fatal(err)
	}
	if n := n(); n != 3 {
		t.Fatalf("n=%d after weights 2+1, want 3", n)
	}
	q, err := d.Bind.Query(inst, url.Values{"item": {"good"}})
	if err != nil {
		t.Fatal(err)
	}
	if q["estimate"].(uint64) != 2 {
		t.Fatalf("estimate %v, want 2", q["estimate"])
	}
	if _, ok := q["staleness_bound"]; !ok {
		t.Fatal("buffered query lacks staleness_bound")
	}
}

// TestServingVariantsAgree is law S of laws_test.go, over the same rows
// and fixture: every serving variant — the locked holder, buffered or
// not, and countmin's atomic table, in every layout — at a shape below
// and one past the family's capacity.
func TestServingVariantsAgree(t *testing.T) {
	for _, d := range All() {
		if !d.Servable() {
			continue
		}
		for i, v := range variantsOf(d)[1:] {
			t.Run(d.Name+"/"+v.name, func(t *testing.T) {
				for _, reg := range regimes {
					for _, lay := range layoutsOf(d) {
						if i+1 < len(lay.variants) {
							c := &cell{newFixture(t, d, lawRows[d.Name], lay, reg), lay.variants[i+1]}
							t.Run(path.Join(lay.name, reg.name), func(t *testing.T) { lawServing(t, c) })
						}
					}
				}
			})
		}
	}
}

// lawServing: a serving variant is the plain sketch behind a different
// ingest discipline: fed the same batches through its own bindings it
// holds the same bytes, answers the same keys with the same values,
// absorbs the same peer and refuses the same bad batch — and a buffered
// one adds exactly the staleness bound to an answer.
func lawServing(t *testing.T, c *cell) {
	d, serve, buffered := c.d, c.v.bind, c.v.name == "buffered"
	plain, inst := c.plainNew(t, lawSeed, c.raw), c.receiver(t)
	same := func(stage string) []byte {
		t.Helper()
		want, got := mustMarshal(t, plain), mustMarshal(t, inst)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: %T bytes diverge from the plain sketch's (%d vs %d bytes)", stage, inst, len(got), len(want))
		}
		return got
	}
	for _, batch := range c.parts {
		c.fed(t, plain, &d.Bind, batch)
		c.fed(t, inst, serve, batch)
	}
	same("after ingest") // also syncs a buffered instance, so the reads below are exact

	for _, q := range []url.Values{{}, ofK3, {"item": {"never-seen"}}} {
		want, err := d.Bind.Query(plain, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := serve.Query(inst, q)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := got["staleness_bound"]; ok != buffered {
			t.Errorf("query %v: staleness_bound present = %v on a %s instance", q, ok, c.v.name)
		}
		for k, w := range want {
			if v, ok := got[k]; ok && !reflect.DeepEqual(v, w) {
				t.Errorf("query %v: %s = %v, plain answers %v", q, k, v, w)
			} else if !ok {
				t.Errorf("query %v: no %s in the answer, plain answers %v", q, k, w)
			}
		}
		delete(got, "staleness_bound")
		for k := range got {
			if _, ok := want[k]; !ok {
				t.Errorf("query %v: answers %s, which the plain sketch does not", q, k)
			}
		}
	}

	if (serve.Merge == nil) != (d.Bind.Merge == nil) {
		t.Fatalf("plain merges = %v, %s merges = %v", d.Bind.Merge != nil, c.v.name, serve.Merge != nil)
	}
	if serve.Merge != nil {
		if err := d.Bind.Merge(plain, c.decoded(t, c.part[0])); err != nil {
			t.Fatal(err)
		}
		c.absorb(t, inst, 0)
	}
	before := same("after merge")

	bad := badLine(d.Input)
	if bad == nil {
		return // every byte string is a well-formed line
	}
	items := append(slices.Clone(c.parts[0][:min(20, len(c.parts[0]))]), bad)
	_, plainErr := d.Bind.Ingest(plain, joinLines(items))
	if _, err := serve.Ingest(inst, joinLines(items)); plainErr == nil || err == nil {
		t.Fatalf("bad line %q accepted", bad)
	}
	if after := same("after rejected batch"); !bytes.Equal(after, before) {
		t.Error("rejected batch left partial state")
	}
}
