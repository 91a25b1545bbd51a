package server

// Internal tests for the allocation-free ingest path: Entry.Add's
// validate-then-apply batch semantics, a regression check that a body
// into Entry.Ingest stays at zero heap allocations, and the same guard
// for the registry's name-to-stripe hash.

import (
	"net/url"
	"strings"
	"testing"
)

func TestEntryAddRejectsBatchAtomically(t *testing.T) {
	entry, err := NewEntry(CreateRequest{Type: "countmin"})
	if err != nil {
		t.Fatal(err)
	}
	// The second line's weight is malformed: nothing from the batch may
	// land, including the valid first line.
	batch := [][]byte{[]byte("alpha\t5"), []byte("beta\tbogus"), []byte("gamma\t2")}
	if err := entry.Add(batch); err == nil {
		t.Fatal("Add with malformed weight: want error, got nil")
	}
	summary, err := entry.Query(url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	if n := summary["n"].(uint64); n != 0 {
		t.Fatalf("after rejected batch, n = %d, want 0 (no partial ingest)", n)
	}
	if err := entry.Add([][]byte{[]byte("alpha\t5"), []byte("alpha"), []byte("gamma\t2")}); err != nil {
		t.Fatal(err)
	}
	estimate := func(item string) uint64 {
		t.Helper()
		q, err := entry.Query(url.Values{"item": {item}})
		if err != nil {
			t.Fatal(err)
		}
		return q["estimate"].(uint64)
	}
	if got := estimate("alpha"); got != 6 {
		t.Errorf("Estimate(alpha) = %d, want 6 (5 weighted + 1 unweighted)", got)
	}
	if got := estimate("gamma"); got != 2 {
		t.Errorf("Estimate(gamma) = %d, want 2", got)
	}
}

func TestEntryAddZeroAlloc(t *testing.T) {
	if !poolKeeps() {
		t.Skip("sync.Pool drops the parsed block at random under the race detector")
	}
	for typ, body := range map[string]string{
		"countmin": "some-item\t3\nplain-item\n", // parsed once into a pooled (hash, weight) block
		"hll":      "some-item\nplain-item\n",    // through a striped handle the sketch already holds
	} {
		entry, err := NewEntry(CreateRequest{Type: typ})
		if err != nil {
			t.Fatal(err)
		}
		body := []byte(strings.Repeat(body, 64))
		if n := testing.AllocsPerRun(50, func() {
			if _, err := entry.Ingest(body); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: Ingest of a body: %v allocs per batch, want 0", typ, n)
		}
	}
}

func TestStripeForZeroAlloc(t *testing.T) {
	r := newRegistry()
	names := []string{"a", "clickstream-uniques", strings.Repeat("x", 300)}
	for _, name := range names {
		name := name
		if n := testing.AllocsPerRun(100, func() {
			if r.stripeFor(name) == nil {
				t.Fatal("nil stripe")
			}
		}); n != 0 {
			t.Errorf("stripeFor(%q): %v allocs per lookup, want 0", name, n)
		}
	}
}
