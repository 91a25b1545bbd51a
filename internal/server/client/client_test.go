package client

import (
	"bytes"
	"net/http"
	"strconv"
	"testing"

	"repro/internal/server"
)

// A response that declares its length is read into a buffer grown once
// to fit, not doubled up to it; a buffer that already fits is reused.
func TestSnapshotForSizesBufferOnce(t *testing.T) {
	payload := bytes.Repeat([]byte("z"), 1<<20)
	var gotQuery string
	hs, base, err := server.Listen("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotQuery = r.URL.RawQuery
		w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
		w.Write(payload)
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Close()
	cl := New(base)
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
