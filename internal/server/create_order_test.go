package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/durable"
)

// serve runs one request straight through the mux: no socket, so two
// goroutines' requests land within microseconds of each other.
func serve(s *Server, method, path, body string) int {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec.Code
}

// A sketch becomes visible only once the record that creates it is in
// the log. Were it published first, a client that finds it (its own
// create answers 409, or its add stops answering 404) could have a batch
// acknowledged under a lower LSN than the create, and replay — which
// skips an ingest for a sketch never created — would lose that batch to
// a kill -9. Storms of create / create-then-add / add-until-found, and
// the same against a group-by's new groups, must recover byte-identical,
// and in the WAL every sketch's creating record comes before any ingest
// into it.
func TestCreateIsLoggedBeforeVisible(t *testing.T) {
	const names, groups = 24, 32 // a group-by call creates `groups` sketches at once
	dir := t.TempDir()
	s1 := New()
	if _, err := s1.EnableDurability(dir, durable.Options{FsyncInterval: 0}); err != nil {
		t.Fatal(err)
	}
	untilFound := func(path, body string) {
		for serve(s1, "POST", path, body) == http.StatusNotFound {
		}
	}
	var wg sync.WaitGroup
	storm := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	for i := 0; i < names; i++ {
		plain, prefix := fmt.Sprintf("/v1/sketch/c-%d", i), fmt.Sprintf("g%d-", i)
		var batch strings.Builder
		for g := 0; g < groups; g++ {
			fmt.Fprintf(&batch, "%02d\tgrouped\t7\n", g)
		}
		storm(func() { serve(s1, "POST", plain, `{"type":"countmin"}`) })
		storm(func() {
			serve(s1, "POST", plain, `{"type":"countmin"}`) // 201 or 409: either way it exists now
			if code := serve(s1, "POST", plain+"/add", "after-create\t3"); code != http.StatusOK {
				t.Errorf("add after create of %s: %d", plain, code)
			}
		})
		storm(func() { untilFound(plain+"/add", "found\t5") })
		storm(func() {
			if code := serve(s1, "POST", "/v1/ingest/groupby?type=countmin&prefix="+prefix, batch.String()); code != http.StatusOK {
				t.Errorf("groupby %s: %d", prefix, code)
			}
		})
		// The first group is published while the rest are still being built.
		storm(func() { untilFound("/v1/sketch/"+prefix+"00/add", "found\t5") })
	}
	wg.Wait()

	live := httptest.NewServer(s1.Handler())
	want := map[string][]byte{}
	for i := 0; i < names; i++ {
		for _, name := range []string{fmt.Sprintf("c-%d", i), fmt.Sprintf("g%d-00", i), fmt.Sprintf("g%d-%02d", i, groups-1)} {
			want[name] = mustDo(t, "GET", live.URL+"/v1/sketch/"+name+"/snapshot", "")
		}
	}
	live.Close()
	if err := s1.KillDurability(); err != nil {
		t.Fatal(err)
	}

	_, ts2, _ := durableServer(t, dir, durable.Options{FsyncInterval: 0})
	for name, env := range want {
		if got := mustDo(t, "GET", ts2.URL+"/v1/sketch/"+name+"/snapshot", ""); !bytes.Equal(got, env) {
			t.Errorf("%s: recovered snapshot differs from the pre-kill server's (an acknowledged batch was lost)", name)
		}
	}

	created := map[string]bool{}
	segments, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	var last uint64
	for _, seg := range segments { // Glob sorts: ascending sequence
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		_, last, err = durable.ReplayLog(data, last, func(rec durable.Record) error {
			switch rec.Op {
			case durable.OpCreate:
				created[rec.Name] = true
			case durable.OpGroupBy:
				nl := bytes.IndexByte(rec.Body, '\n')
				for _, line := range SplitBatch(rec.Body[nl+1:]) {
					g, _, _ := bytes.Cut(line, []byte{'\t'})
					created[rec.Name+string(g)] = true
				}
			case durable.OpIngest:
				if !created[rec.Name] {
					t.Errorf("WAL: ingest into %q at LSN %d precedes the record that creates it", rec.Name, rec.LSN)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(created) != names*(1+groups) {
		t.Errorf("WAL creates %d sketches, want %d", len(created), names*(1+groups))
	}
}
