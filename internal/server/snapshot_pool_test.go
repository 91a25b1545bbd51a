package server

// The /snapshot handler marshals into a pooled response buffer: after
// the first reply it allocates next to nothing, and a buffer is never
// seen by two replies at once.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// countingWriter is a ResponseWriter that keeps no body, so that what
// a handler call allocates is the handler's own.
type countingWriter struct {
	header http.Header
	status int
	n      int
}

func (w *countingWriter) Header() http.Header         { return w.header }
func (w *countingWriter) WriteHeader(status int)      { w.status = status }
func (w *countingWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

func loadedServer(t *testing.T, creates map[string]string) (*Server, *httptest.Server) {
	t.Helper()
	s := New()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	var body strings.Builder
	for i := 0; i < 4096; i++ {
		fmt.Fprintf(&body, "flow%d\t%d\n", i%1500, 1+i%9)
	}
	for name, create := range creates {
		mustDo(t, "POST", ts.URL+"/v1/sketch/"+name, create)
		mustDo(t, "POST", ts.URL+"/v1/sketch/"+name+"/add", body.String())
	}
	return s, ts
}

// poolKeeps reports whether a sync.Pool hands back what it was given:
// under the race detector it drops a quarter of all Puts on purpose, and
// a test of what pooling saves has nothing to measure.
func poolKeeps() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		p.Put(new(int))
	}
	for i := 0; i < 64; i++ {
		if p.Get() == nil {
			return false
		}
	}
	return true
}

func TestSnapshotHandlerReusesItsBuffer(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P, one pool shard: what is Put is what is Got
	if !poolKeeps() {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	s, _ := loadedServer(t, map[string]string{"sf": `{"type":"sfsketch","width":4096,"depth":4}`})
	serve := func() int {
		w := &countingWriter{header: http.Header{}}
		s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/v1/sketch/sf/snapshot?wire=full", nil))
		if w.status != http.StatusOK {
			t.Fatalf("snapshot: HTTP %d", w.status)
		}
		return w.n
	}
	size := serve() // the first reply grows the pooled buffer
	if size < 1<<20 {
		t.Fatalf("a %d-byte envelope is too small for this audit", size)
	}
	var before, after runtime.MemStats
	for run := 2; run <= 6; run++ {
		runtime.ReadMemStats(&before)
		serve()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
			t.Errorf("/snapshot %d of a %d-byte envelope allocated %d bytes in the handler, want < 64 KB", run, size, got)
		}
	}
}

// TestSnapshotPooledBuffersDoNotCross interleaves snapshots of a large
// and a small sketch from several clients (run under -race in CI): the
// replies share pooled buffers of whatever size the last user left, and
// each must still be exactly its own sketch's fresh MarshalBinary.
func TestSnapshotPooledBuffersDoNotCross(t *testing.T) {
	s, ts := loadedServer(t, map[string]string{
		"big":   `{"type":"countmin","width":16384,"depth":4}`,
		"small": `{"type":"hll","p":10}`,
		"sf":    `{"type":"sfsketch","width":512,"depth":4}`,
	})
	want := map[string][]byte{}
	for _, name := range []string{"big", "small", "sf"} {
		e, err := s.tenant(DefaultTenant).reg.get(name)
		if err != nil {
			t.Fatal(err)
		}
		if want[name], err = e.entry.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			order := []string{"big", "small", "sf"}
			for i := 0; i < 30; i++ {
				name := order[(i+c)%len(order)]
				resp, err := http.Get(ts.URL + "/v1/sketch/" + name + "/snapshot")
				if err != nil {
					t.Error(err)
					return
				}
				var got bytes.Buffer
				_, err = got.ReadFrom(resp.Body)
				resp.Body.Close()
				if err != nil || !bytes.Equal(got.Bytes(), want[name]) {
					t.Errorf("client %d, read %d: %s snapshot is not its MarshalBinary (%d vs %d bytes, err %v)", c, i, name, got.Len(), len(want[name]), err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}
