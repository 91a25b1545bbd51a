package registry

import (
	"bytes"
	"net/url"
	"path"
	"reflect"
	"slices"
	"testing"

	"repro/internal/concurrent"
)

// Serving must build the mode it is asked for: the buffered form where
// the family has one, its own holder where it has no buffered form or
// buffering is off, and the locked holder for a family with neither.
func TestServingNewModeDispatch(t *testing.T) {
	t.Parallel()
	d, _ := Lookup("countmin")
	p, err := d.Validate(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := d.Serving(p, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := inst.(*concurrent.AtomicCountMin); !ok {
		t.Fatalf("atomic mode built %T, want *concurrent.AtomicCountMin", inst)
	}

	inst, err = d.Serving(p, true)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := inst.(*concurrent.BufferedCountMin)
	if !ok {
		t.Fatalf("buffered mode built %T, want *concurrent.BufferedCountMin", inst)
	}
	b.Close()

	// A family with no holder of its own is the locked plain sketch in
	// either mode.
	theta, _ := Lookup("theta")
	if theta.NewServingBuffered != nil || theta.NewServing != nil {
		t.Fatal("theta unexpectedly grew a holder of its own; update this test")
	}
	tp, err := theta.Validate(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, buffered := range []bool{false, true} {
		if inst, err := theta.Serving(tp, buffered); err != nil {
			t.Fatal(err)
		} else if _, ok := inst.(*locked); !ok {
			t.Fatalf("theta (buffered %v) built %T, want the locked holder", buffered, inst)
		}
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
	b := inst.(*concurrent.BufferedCountMin)
	defer b.Close()

	batch := [][]byte{[]byte("good\t2"), []byte("bad\tnot-a-number")}
	if err := d.Bind.Ingest(inst, batch); err == nil {
		t.Fatal("bad weight accepted")
	}
	b.Sync()
	if n := b.N(); n != 0 {
		t.Fatalf("partial ingest after rejected batch: n=%d", n)
	}

	if err := d.Bind.Ingest(inst, [][]byte{[]byte("good\t2"), []byte("plain")}); err != nil {
		t.Fatal(err)
	}
	b.Sync()
	if n := b.N(); n != 3 {
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
// and fixture: every serving variant — the family's own holders, the
// locked holder, in every layout — at a shape below and one past the
// family's capacity.
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
			} else if !ok && !slices.Contains(c.row.answersLess, k) {
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
	if d.Bind.Ingest(plain, items) == nil || serve.Ingest(inst, items) == nil {
		t.Fatalf("bad line %q accepted", bad)
	}
	if after := same("after rejected batch"); !bytes.Equal(after, before) {
		t.Error("rejected batch left partial state")
	}
}
