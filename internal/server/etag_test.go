package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/durable"
	typereg "repro/internal/registry"
)

// tagged is one snapshot read: its status, envelope and ETag.
type tagged struct {
	code int
	env  []byte
	tag  string
}

// readIf reads a sketch's snapshot, conditional on tag when it is not
// empty. A read that fails is reported and has status 0.
func readIf(t *testing.T, base, name, tag string) tagged {
	t.Helper()
	req, _ := http.NewRequest("GET", base+"/v1/sketch/"+name+"/snapshot", nil)
	if tag != "" {
		req.Header.Set("If-None-Match", tag)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Error(err)
		return tagged{}
	}
	defer resp.Body.Close()
	env, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
		return tagged{}
	}
	return tagged{resp.StatusCode, env, resp.Header.Get("ETag")}
}

// call sends one request and reports any answer but want.
func call(t *testing.T, method, url, body string, want int) bool {
	t.Helper()
	req, _ := http.NewRequest(method, url, strings.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Error(err)
		return false
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != want {
		t.Errorf("%s %s: HTTP %d (%s), want %d", method, url, resp.StatusCode, msg, want)
		return false
	}
	return true
}

// inputLines is a batch of every input kind a family ingests.
var inputLines = map[typereg.InputKind]string{
	typereg.InputItems:              "alpha\nbeta\ngamma\n",
	typereg.InputWeightedItems:      "alpha\t3\nbeta\n",
	typereg.InputSignedItems:        "alpha\t-2\nbeta\t+4\ngamma\n",
	typereg.InputFloats:             "1.5\n2.25\n-0.5\n",
	typereg.InputUintValues:         "7\t2\n42\n",
	typereg.InputTurnstile:          "3\t5\n9\n",
	typereg.InputEvents:             "x\nx\nx\n",
	typereg.InputEdges:              "0\t1\n2\t3\n",
	typereg.InputWeightedFloatItems: "alpha\t1.5\nbeta\n",
}

// TestEveryMutationMovesTheTag: for every servable family, in the
// default and the buffered serving mode, a snapshot read conditional on
// the tag of the state the reader holds answers 304 with no body, and
// after each way the state can change — an ingest batch, a merge of a
// peer envelope, a query, delete and create again, TTL eviction and
// create again, a restore from a snapshot — 200 with a new tag and the
// bytes an unconditional read returns.
func TestEveryMutationMovesTheTag(t *testing.T) {
	for _, buffered := range []bool{false, true} {
		t.Run(fmt.Sprintf("buffered=%v", buffered), func(t *testing.T) {
			dir := t.TempDir()
			serve := func() (*Server, *httptest.Server) {
				s := New()
				s.SetBufferedIngest(buffered)
				if _, err := s.EnableDurability(dir, durable.Options{FsyncInterval: 0}); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { closeEntries(s) })
				ts := httptest.NewServer(s.Handler())
				t.Cleanup(ts.Close)
				return s, ts
			}
			srv, ts := serve()
			held := map[string]tagged{} // by family: what the reader holds
			// moved checks that the state changed since the reader's copy:
			// a 200 naming a new tag, with what an unconditional read returns,
			// and a 304 to that tag at once.
			moved := func(base, name, step string) {
				t.Helper()
				if t.Failed() {
					t.FailNow()
				}
				old := held[name]
				got := readIf(t, base, name, old.tag)
				if got.code != http.StatusOK || got.tag == "" || got.tag == old.tag {
					t.Fatalf("%s after %s: HTTP %d, tag %s (held %s), want 200 and a new tag", name, step, got.code, got.tag, old.tag)
				}
				if fresh := readIf(t, base, name, ""); fresh.tag != got.tag || !bytes.Equal(fresh.env, got.env) {
					t.Fatalf("%s after %s: the conditional read answered %d bytes, tag %s; an unconditional one %d bytes, tag %s",
						name, step, len(got.env), got.tag, len(fresh.env), fresh.tag)
				}
				if again := readIf(t, base, name, got.tag); again.code != http.StatusNotModified || len(again.env) != 0 || again.tag != got.tag {
					t.Fatalf("%s after %s: a read holding the current tag got HTTP %d, %d bytes, tag %s; want 304, no body, the same tag",
						name, step, again.code, len(again.env), again.tag)
				}
				held[name] = got
			}
			for _, d := range typereg.All() {
				if !d.Servable() {
					continue
				}
				name, batch := d.Name, inputLines[d.Input]
				if batch == "" {
					t.Fatalf("%s: no input lines for its kind", name)
				}
				url := ts.URL + "/v1/sketch/" + name
				create := fmt.Sprintf(`{"type":%q}`, name)
				call(t, "POST", url, create, http.StatusCreated)
				call(t, "POST", url+"/add", batch, http.StatusOK)
				moved(ts.URL, name, "create")

				call(t, "POST", url+"/add", batch, http.StatusOK)
				moved(ts.URL, name, "add")

				if d.Mergeable() {
					call(t, "POST", url+"-peer", create, http.StatusCreated)
					call(t, "POST", url+"-peer/add", batch+batch, http.StatusOK)
					peer := readIf(t, ts.URL, name+"-peer", "")
					call(t, "POST", url+"/merge", string(peer.env), http.StatusOK)
					moved(ts.URL, name, "merge")
				}

				call(t, "GET", url+"/query", "", http.StatusOK)
				moved(ts.URL, name, "query")

				call(t, "DELETE", url, "", http.StatusOK)
				call(t, "POST", url, create, http.StatusCreated)
				call(t, "POST", url+"/add", batch+batch, http.StatusOK)
				moved(ts.URL, name, "delete and create")

				ttl := fmt.Sprintf(`{"type":%q,"ttl_s":60}`, name)
				call(t, "DELETE", url, "", http.StatusOK)
				call(t, "POST", url, ttl, http.StatusCreated)
				call(t, "POST", url+"/add", batch+batch, http.StatusOK)
				moved(ts.URL, name, "create with a TTL")
				if n := srv.SweepExpired(time.Now().Add(time.Hour)); n != 1 {
					t.Fatalf("%s: the sweep evicted %d sketches, want 1", name, n)
				}
				call(t, "POST", url, create, http.StatusCreated)
				call(t, "POST", url+"/add", batch+batch, http.StatusOK)
				moved(ts.URL, name, "TTL eviction and create")
			}

			// A server recovered from the final snapshot restores every
			// sketch byte for byte (RestoreEntry), as other entries.
			ts.Close()
			if err := srv.CloseDurability(); err != nil {
				t.Fatal(err)
			}
			_, ts2 := serve()
			for name, old := range held {
				moved(ts2.URL, name, "restore")
				if !bytes.Equal(held[name].env, old.env) {
					t.Fatalf("%s: restored as %d bytes, was %d", name, len(held[name].env), len(old.env))
				}
			}
		})
	}
}

// TestNoStaleNotModified: four writers and a conditional reader race on
// one sketch — served behind the registry's lock (countmin), by its own
// holder (hll, blockedbloom), or buffered (countmin). Once the writers
// have stopped, every tag the reader was ever given either answers 200
// or answers 304 for exactly the bytes an unconditional read returns:
// no 304 keeps a reader on a state that lacks an acknowledged write.
func TestNoStaleNotModified(t *testing.T) {
	for _, tc := range []struct {
		typ, create string
		buffered    bool
	}{
		{"countmin", `{"type":"countmin","width":1024,"depth":4}`, false},
		{"hll", `{"type":"hll","p":10}`, false},
		{"blockedbloom", `{"type":"blockedbloom","m":65536,"k":7}`, false},
		{"countmin", `{"type":"countmin","width":1024,"depth":4}`, true},
	} {
		t.Run(fmt.Sprintf("%s/buffered=%v", tc.typ, tc.buffered), func(t *testing.T) {
			s := New()
			s.SetBufferedIngest(tc.buffered)
			t.Cleanup(func() { closeEntries(s) })
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(ts.Close)
			url := ts.URL + "/v1/sketch/x"
			if !call(t, "POST", url, tc.create, http.StatusCreated) {
				t.FailNow()
			}

			var writers sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < 4; w++ {
				writers.Add(1)
				go func() {
					defer writers.Done()
					for b := 0; b < 40; b++ {
						var batch strings.Builder
						for i := 0; i < 64; i++ {
							fmt.Fprintf(&batch, "w%d-b%d-i%d\n", w, b, i)
						}
						if !call(t, "POST", url+"/add", batch.String(), http.StatusOK) {
							return
						}
					}
				}()
			}
			seen := map[string][]byte{} // every tag the reader was given, and its bytes
			readerDone := make(chan struct{})
			go func() {
				defer close(readerDone)
				var cur tagged
				for {
					select {
					case <-stop:
						return
					default:
					}
					got := readIf(t, ts.URL, "x", cur.tag)
					switch got.code {
					case http.StatusOK:
						cur = got
						seen[cur.tag] = cur.env
					case http.StatusNotModified:
					default:
						t.Errorf("conditional read: HTTP %d %s", got.code, got.env)
						return
					}
				}
			}()
			writers.Wait()
			close(stop)
			<-readerDone
			t.Logf("the reader was given %d states", len(seen))
			fresh := readIf(t, ts.URL, "x", "")
			for tag, env := range seen {
				got := readIf(t, ts.URL, "x", tag)
				if got.code == http.StatusNotModified && !bytes.Equal(env, fresh.env) {
					t.Errorf("tag %s answered 304, and its %d bytes are not the current state's %d", tag, len(env), len(fresh.env))
				}
			}
			if got := readIf(t, ts.URL, "x", fresh.tag); got.code != http.StatusNotModified {
				t.Errorf("the current tag answered HTTP %d, want 304", got.code)
			}
		})
	}
}
