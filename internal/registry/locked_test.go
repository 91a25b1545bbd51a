package registry

// The locked holder, registry-wide: every servable family without a
// holder of its own is served as its plain instance behind one mutex
// (Descriptor.Serving), parsed outside it, and survives concurrent use
// through the bindings alone.

import (
	"bytes"
	"errors"
	"math/rand"
	"net/url"
	"sync"
	"testing"
	"time"
)

// lockedFamilies calls f with each family Serving puts behind the
// holder, its law row's compact shape validated, and a fresh served
// instance.
func lockedFamilies(t *testing.T, f func(t *testing.T, d *Descriptor, p Params, inst any)) {
	n := 0
	for _, d := range All() {
		if d.Servable() {
			v := variantsOf(d)[1] // Serving(p, false)
			n++
			t.Run(d.Name, func(t *testing.T) {
				p, err := d.Validate(7, lawRows[d.Name].compact)
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
	if n != 30 {
		t.Errorf("%d families are served behind the locked holder, want all 30 servable", n)
	}
}

// TestLockedIngestParsesOutsideTheLock: with the holder's mutex held by
// the test, a batch whose last line is malformed is refused with
// ErrInput without waiting for the lock and leaves the state as it was,
// and a well-formed batch waits for the release and then applies.
func TestLockedIngestParsesOutsideTheLock(t *testing.T) {
	lockedFamilies(t, func(t *testing.T, d *Descriptor, p Params, inst any) {
		plain, l := held(inst)
		rng := rand.New(rand.NewSource(int64(d.Tag)))
		ref, err := d.New(p) // fed what inst is, serially
		if err != nil {
			t.Fatal(err)
		}
		universe := universeOf(d, p, 40)
		first, second := randomLines(rng, d.Input, 200, universe), randomLines(rng, d.Input, 200, universe)
		for _, fed := range []any{inst, ref} {
			if _, err := d.Bind.Ingest(fed, joinLines(first)); err != nil {
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
			go func() {
				_, err := d.Bind.Ingest(inst, joinLines(append(randomLines(rng, d.Input, 40, universe), bad)))
				refused <- err
			}()
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
		go func() { _, err := d.Bind.Ingest(inst, joinLines(second)); applied <- err }()
		select {
		case err := <-applied:
			t.Fatalf("a well-formed batch applied (err = %v) while the test held the lock", err)
		case <-time.After(20 * time.Millisecond): // an absence has no event to wait on
		}
		l.mu.Unlock()
		if err := <-applied; err != nil {
			t.Fatal(err)
		}
		if _, err := d.Bind.Ingest(ref, joinLines(second)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustMarshal(t, inst), mustMarshal(t, ref)) {
			t.Error("after the release the sketch is not the serial one")
		}
	})
}

// TestLockedHolderConcurrentUse drives each locked family through its
// bindings alone from four writers, one merger of a decoded peer and a
// reader cycling Query / AppendMarshal / Projection / SizeOf — the
// operations a live entry sees — and holds the result to the serial
// plain run: byte for byte where the update commutes, key by key and by
// the family's bound where it does not. Run it under -race.
func TestLockedHolderConcurrentUse(t *testing.T) {
	lockedFamilies(t, func(t *testing.T, d *Descriptor, p Params, inst any) {
		row, universe := lawRows[d.Name], universeOf(d, p, 40)
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
				fed[w][b] = randomLines(rng, d.Input, 50+rng.Intn(100), universe)
				stream = append(stream, fed[w][b]...)
				if _, err := d.Bind.Ingest(serial, joinLines(fed[w][b])); err != nil {
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
			lines := randomLines(rng, d.Input, 200, universe)
			stream = append(stream, lines...)
			if _, err := d.Bind.Ingest(peer, joinLines(lines)); err != nil {
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
					if _, err := d.Bind.Ingest(inst, joinLines(batch)); err != nil {
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
				if _, err := d.Bind.Query(inst, row.query); err != nil {
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

		if row.union == exact && row.loose == nil {
			if !bytes.Equal(mustMarshal(t, inst), mustMarshal(t, serial)) {
				t.Error("bytes differ from the serial plain run's, though the row says the merge is the union")
			}
			return
		}
		got, err := d.Bind.Query(inst, row.query)
		if err != nil {
			t.Fatal(err)
		}
		want, err := d.Bind.Query(serial, row.query)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswers(t, row, got, want)
		checkBounded(t, d, got, want, stream)
	})
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
	served, err := d.Serving(p, false)
	if err != nil {
		t.Fatal(err)
	}
	want := testing.AllocsPerRun(20, func() { d.Bind.Query(plain, nil) })
	if got := testing.AllocsPerRun(20, func() { d.Bind.Query(served, nil) }); got != want {
		t.Errorf("a served summary query makes %v allocations, the plain one %v", got, want)
	}
	if got := bytesPerRun(20, func() { d.Bind.Query(served, nil) }); got > 2048 {
		t.Errorf("a served summary query allocates %.0f bytes over a %d-byte sketch", got, SizeOf(served))
	}
}
