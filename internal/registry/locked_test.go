package registry

// The locked holder, registry-wide: every servable family without a
// holder of its own is served as its plain instance behind one mutex
// (Descriptor.Serving), parsed outside it, and survives concurrent use
// through the bindings alone.

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"
)

// lockedFamilies calls f with each family Serving puts behind the
// holder, a validated parameter set, and a fresh served instance.
func lockedFamilies(t *testing.T, shapes map[string]map[string]float64, f func(t *testing.T, d *Descriptor, p Params, inst any)) {
	n := 0
	for _, d := range All() {
		vs := variantsOf(d)
		if v := vs[len(vs)-1]; v.name == "locked" {
			n++
			t.Run(d.Name, func(t *testing.T) {
				p, err := d.Validate(7, shapes[d.Name])
				if err != nil {
					t.Fatal(err)
				}
				inst, err := v.build(p)
				if err != nil {
					t.Fatal(err)
				}
				f(t, d, p, inst)
			})
		}
	}
	if n != 27 {
		t.Errorf("%d families are served behind the locked holder, want 27: 30 servable less hll, countmin and blockedbloom", n)
	}
}

// TestLockedIngestParsesOutsideTheLock: with the holder's mutex held by
// the test, a batch whose last line is malformed is refused with
// ErrInput without waiting for the lock and leaves the state as it was,
// and a well-formed batch waits for the release and then applies.
func TestLockedIngestParsesOutsideTheLock(t *testing.T) {
	lockedFamilies(t, compactShape, func(t *testing.T, d *Descriptor, p Params, inst any) {
		plain, l := held(inst)
		rng := rand.New(rand.NewSource(int64(d.Tag)))
		ref, err := d.New(p) // fed what inst is, serially
		if err != nil {
			t.Fatal(err)
		}
		first, second := randomLines(rng, d.Input, 200), randomLines(rng, d.Input, 200)
		for _, fed := range []any{inst, ref} {
			if err := d.Bind.Ingest(fed, first); err != nil {
				t.Fatal(err)
			}
		}
		// ref is marshalled wherever inst is: a digest compresses before
		// it marshals, so a read is part of the history.
		before := mustMarshal(t, inst)
		mustMarshal(t, ref)

		l.mu.Lock()
		if bad := badLine(d.Input); bad != nil {
			refused := make(chan error, 1)
			go func() { refused <- d.Bind.Ingest(inst, append(randomLines(rng, d.Input, 40), bad)) }()
			select {
			case err := <-refused:
				if !errors.Is(err, ErrInput) {
					t.Fatalf("last line %q: err = %v, want ErrInput", bad, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("a batch ending in %q waits for the lock before it is refused", bad)
			}
			if now := mustMarshal(t, plain); !bytes.Equal(now, before) { // plain: the test holds the lock
				t.Fatal("the refused batch changed the sketch")
			}
			mustMarshal(t, ref)
		}
		applied := make(chan error, 1)
		go func() { applied <- d.Bind.Ingest(inst, second) }()
		select {
		case err := <-applied:
			t.Fatalf("a well-formed batch applied (err = %v) while the test held the lock", err)
		case <-time.After(20 * time.Millisecond): // an absence has no event to wait on
		}
		l.mu.Unlock()
		if err := <-applied; err != nil {
			t.Fatal(err)
		}
		if err := d.Bind.Ingest(ref, second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustMarshal(t, inst), mustMarshal(t, ref)) {
			t.Error("after the release the sketch is not the serial one")
		}
	})
}

// commutes names the families whose state is a function of the multiset
// of updates and merges, whatever their order, and why: after concurrent
// use their bytes must be the serial plain run's.
var commutes = map[string]string{
	"ams":            "linear counters",
	"countsketch":    "linear counters",
	"countingbloom":  "counter adds",
	"sparserecovery": "linear measurements",
	"l0sampler":      "linear measurements",
	"graphsketch":    "linear measurements (L0 samplers of incidence vectors)",
	"bloom":          "bit OR",
	"fm":             "bit OR",
	"loglog":         "register max",
	"hllpp":          "register max, sparse or dense",
	"kmv":            "the k smallest hashes of a set",
	"theta":          "the hashes of a set below theta",
	"minhash":        "per-function minimum",
}

// bounded is every other locked family — its state depends on arrival
// order (compaction and eviction order, an RNG drawn per arrival, the
// SF slim raise reading the fat stage, a read that burns a copy), so a
// concurrent run has no one serial run to equal. The answer to query is
// compared with the serial run's key by key, except the keys listed,
// which hold the order-dependent estimate and are checked by the
// family's own bound in checkBounded.
var bounded = map[string]struct {
	query url.Values
	loose []string
}{
	"kll":               {url.Values{"q": {"0.5"}}, []string{"quantile"}},
	"req":               {url.Values{"q": {"0.5"}}, []string{"quantile"}},
	"gk":                {url.Values{"q": {"0.5"}}, []string{"quantile"}},
	"tdigest":           {url.Values{"q": {"0.5"}}, []string{"quantile"}},
	"mrl":               {url.Values{"q": {"0.5"}}, []string{"quantile"}},
	"qdigest":           {url.Values{"q": {"0.5"}}, []string{"quantile"}},
	"misragries":        {url.Values{"item": {"k3"}}, nil}, // 40 keys in 64 counters: exact in any order
	"spacesaving":       {url.Values{"item": {"k3"}}, nil}, // the same
	"sfsketch":          {url.Values{"item": {"k3"}}, []string{"estimate"}},
	"reservoir":         {nil, []string{"sample"}},
	"weightedreservoir": {nil, []string{"sample"}},
	"morris":            {nil, []string{"count", "exponent"}},
	"nelsonyu":          {nil, []string{"count"}},
	"robustdistinct":    {nil, []string{"estimate", "copies_used", "exhausted"}},
}

// boundedShape gives morris a base whose standard error (≈ 10 %) is a
// bound worth checking; at the default base 2 it is 70 %.
var boundedShape = map[string]map[string]float64{
	"graphsketch": compactShape["graphsketch"],
	"morris":      {"base": 1.02},
}

// checkBounded holds a bounded family's loose keys to the guarantee the
// family advertises, against the truth of the stream (every line fed,
// the merged peer's included).
func checkBounded(t *testing.T, d *Descriptor, got, want map[string]any, stream [][]byte) {
	t.Helper()
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
	case "sample": // as many sampled as the serial run, each of them from the stream
		g, _ := got["sample"].([]string)
		w, _ := want["sample"].([]string)
		if len(g) != len(w) {
			t.Errorf("sample of %d items, the serial run's has %d", len(g), len(w))
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
	case "robust": // an HLL at p = 12 under (1+eps)-sticky release, eps = 0.05
		distinct := map[string]bool{}
		for _, line := range stream {
			distinct[string(line)] = true
		}
		within("estimate", float64(len(distinct)), 0.15)
	case "frequency": // sfsketch: the slim stage is raised no higher than the fat one reads
		if fat, ok := got["fat_estimate"].(uint64); ok && got["estimate"].(uint64) > fat {
			t.Errorf("slim estimate %v above the fat stage's %d", got["estimate"], fat)
		}
	default:
		t.Fatalf("no bound for family %q: add one", d.Family)
	}
}

// TestLockedHolderConcurrentUse drives each locked family through its
// bindings alone from four writers, one merger of a decoded peer and a
// reader cycling Query / AppendMarshal / Projection / SizeOf — the
// operations a live entry sees — and holds the result to the serial
// plain run: byte for byte where the update commutes, key by key and by
// the family's bound where it does not. Run it under -race.
func TestLockedHolderConcurrentUse(t *testing.T) {
	lockedFamilies(t, boundedShape, func(t *testing.T, d *Descriptor, p Params, inst any) {
		_, c := commutes[d.Name]
		if _, b := bounded[d.Name]; b == c {
			t.Fatalf("%s must be in exactly one of commutes and bounded", d.Name)
		}
		const writers, batches = 4, 6
		rng := rand.New(rand.NewSource(int64(d.Tag)))
		var fed [writers][batches][][]byte
		var stream [][]byte
		serial, err := d.New(p)
		if err != nil {
			t.Fatal(err)
		}
		for w := range fed {
			for b := range fed[w] {
				fed[w][b] = randomLines(rng, d.Input, 50+rng.Intn(100))
				stream = append(stream, fed[w][b]...)
				if err := d.Bind.Ingest(serial, fed[w][b]); err != nil {
					t.Fatal(err)
				}
			}
		}
		var peerEnv []byte
		if d.Bind.Merge != nil {
			peer, err := d.New(p)
			if err != nil {
				t.Fatal(err)
			}
			lines := randomLines(rng, d.Input, 200)
			stream = append(stream, lines...)
			if err := d.Bind.Ingest(peer, lines); err != nil {
				t.Fatal(err)
			}
			peerEnv = mustMarshal(t, peer)
			if err := d.Bind.Merge(serial, peer); err != nil {
				t.Fatal(err)
			}
		}

		var writing, reading sync.WaitGroup
		fail := make(chan error, writers+2)
		for w := range fed {
			writing.Add(1)
			go func() {
				defer writing.Done()
				for _, batch := range fed[w] {
					if err := d.Bind.Ingest(inst, batch); err != nil {
						fail <- err
						return
					}
				}
			}()
		}
		if peerEnv != nil {
			writing.Add(1)
			go func() {
				defer writing.Done()
				src, err := d.Decode(peerEnv)
				if err == nil {
					err = d.Bind.Merge(inst, src)
				}
				if err != nil {
					fail <- err
				}
			}()
		}
		done := make(chan struct{})
		reading.Add(1)
		go func() {
			defer reading.Done()
			var buf []byte
			for stop := false; !stop; {
				select {
				case <-done:
					stop = true // one more cycle, over the final state
				default:
				}
				if _, err := d.Bind.Query(inst, bounded[d.Name].query); err != nil {
					fail <- err
					return
				}
				env, _, err := AppendMarshal(buf[:0], inst, true)
				if err == nil {
					_, err = d.Decode(env) // a snapshot taken between two updates decodes
				}
				if err != nil {
					fail <- err
					return
				}
				buf = env
				if _, err := d.Projection(inst, url.Values{"item": {"k3"}}); err != nil {
					fail <- err
					return
				}
				SizeOf(inst)
			}
		}()
		writing.Wait()
		close(done)
		reading.Wait()
		select {
		case err := <-fail:
			t.Fatal(err)
		default:
		}

		if why, ok := commutes[d.Name]; ok {
			if !bytes.Equal(mustMarshal(t, inst), mustMarshal(t, serial)) {
				t.Errorf("bytes differ from the serial plain run's, though the update commutes (%s)", why)
			}
			return
		}
		b := bounded[d.Name]
		got, err := d.Bind.Query(inst, b.query)
		if err != nil {
			t.Fatal(err)
		}
		want, err := d.Bind.Query(serial, b.query)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(want))
		for k := range want {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if slices.Contains(b.loose, k) {
				continue
			}
			if g, ok := got[k]; !ok || !equalAnswers(g, want[k]) {
				t.Errorf("%s = %v, the serial plain run answers %v", k, got[k], want[k])
			}
		}
		checkBounded(t, d, got, want, stream)
	})
}

// equalAnswers compares two answer values, floats included.
func equalAnswers(a, b any) bool {
	if x, ok := a.(float64); ok {
		y, ok := b.(float64)
		return ok && (x == y || math.IsNaN(x) && math.IsNaN(y))
	}
	return a == b
}

// TestServedSummaryQueryAllocatesNoTable: a served sfsketch answers its
// summary query with what the plain one allocates — the answer map and
// its boxed values — and no copy of either stage (its serving wrapper
// cloned both, 1.2 MB at the benchmark's shape, to read five integers).
func TestServedSummaryQueryAllocatesNoTable(t *testing.T) {
	d, _ := Lookup("sfsketch")
	p, err := d.Validate(7, map[string]float64{"width": 8192, "depth": 4})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := d.New(p)
	if err != nil {
		t.Fatal(err)
	}
	served, bind, err := d.Serving(p)
	if err != nil {
		t.Fatal(err)
	}
	want := testing.AllocsPerRun(20, func() { d.Bind.Query(plain, nil) })
	if got := testing.AllocsPerRun(20, func() { bind.Query(served, nil) }); got != want {
		t.Errorf("a served summary query makes %v allocations, the plain one %v", got, want)
	}
	if got := bytesPerRun(20, func() { bind.Query(served, nil) }); got > 2048 {
		t.Errorf("a served summary query allocates %.0f bytes over a %d-byte sketch", got, SizeOf(served))
	}
}
