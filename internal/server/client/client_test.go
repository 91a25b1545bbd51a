package client

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

func TestReadAppendGrowsAndReuses(t *testing.T) {
	payload := bytes.Repeat([]byte("envelope-bytes"), 1000)

	// From nil: grows to fit and returns the exact payload.
	got, err := ReadAppend(bytes.NewReader(payload), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("ReadAppend from nil: %d bytes, want %d", len(got), len(payload))
	}

	// Reused at capacity: same backing array, no copy drift.
	buf := got
	got2, err := ReadAppend(bytes.NewReader(payload), buf[:0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, payload) {
		t.Fatal("ReadAppend into reused buffer corrupted the payload")
	}
	if &got2[0] != &buf[0] {
		t.Fatal("ReadAppend reallocated a buffer that already fit the payload")
	}
}

func TestReadAppendZeroAllocSteadyState(t *testing.T) {
	// The pooled scatter-gather read path's contract: once a shard's
	// buffer has grown to the envelope size, re-reading an envelope of
	// the same size allocates nothing. bytes.Reader needs one extra byte
	// of headroom to observe EOF without triggering the grow path, which
	// matches a real response body read.
	payload := bytes.Repeat([]byte("envelope-bytes"), 1000)
	buf := make([]byte, 0, len(payload)+1)
	rd := bytes.NewReader(payload)
	if n := testing.AllocsPerRun(100, func() {
		rd.Reset(payload)
		var err error
		buf, err = ReadAppend(rd, buf[:0])
		if err != nil || len(buf) != len(payload) {
			t.Fatalf("ReadAppend: %v (%d bytes)", err, len(buf))
		}
	}); n != 0 {
		t.Errorf("ReadAppend steady state: %v allocs per op, want 0", n)
	}
}

// A response that declares its length is read into a buffer grown once
// to fit, not doubled up to it; a buffer that already fits is reused.
func TestSnapshotForSizesBufferOnce(t *testing.T) {
	payload := bytes.Repeat([]byte("z"), 1<<20)
	var gotQuery string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotQuery = r.URL.RawQuery
		w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
		w.Write(payload)
	}))
	defer ts.Close()
	cl := New(ts.URL)
	small := make([]byte, 0, 512)
	got, err := cl.SnapshotFor("s", "slim", "item=a b", small)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("SnapshotFor: %d bytes, %v", len(got), err)
	}
	if gotQuery != "wire=slim&for=item%3Da+b" {
		t.Errorf("request query %q", gotQuery)
	}
	if cap(got) != len(payload)+1 {
		t.Errorf("buffer grew to cap %d for a declared %d bytes: want one allocation of len+1", cap(got), len(payload))
	}
	again, err := cl.SnapshotAppend("s", "", got)
	if err != nil || &again[0] != &got[0] {
		t.Errorf("a buffer that fits was not reused (err %v)", err)
	}
	if gotQuery != "" {
		t.Errorf("parameterless read sent query %q, want none", gotQuery)
	}
}
