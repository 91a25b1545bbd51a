package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/server/client"
)

// mergeOf is the envelope of the merge of envs, envs left as they were.
func mergeOf(t *testing.T, envs [][]byte) []byte {
	t.Helper()
	own := make([][]byte, len(envs))
	for i, env := range envs {
		own[i] = slices.Clone(env)
	}
	merged, err := registry.MergeEnvelopes(own)
	if err != nil {
		t.Fatal(err)
	}
	env, err := merged.Envelope(nil)
	if err != nil {
		t.Fatal(err)
	}
	return slices.Clone(env)
}

// getSnapshot reads a merged /snapshot off the coordinator.
func getSnapshot(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// A whole-state read through the gather slots keeps every failure rule
// of a read that gathers afresh: a shard killed after a cached read
// fails the next strict read with a 503 naming it, ?allow_partial=true
// merges exactly the live shards' envelopes, and the shard restarted
// from its WAL is read again in full — its sketches are other entries,
// under other tags — after which the merged snapshot is what it was
// before the kill, byte for byte.
func TestGatherSlotAcrossAShardKill(t *testing.T) {
	dir := t.TempDir()
	shards := make([]*httptest.Server, 3)
	urls := make([]string, len(shards))
	var durableShard *server.Server
	for i := range shards {
		s := server.New()
		if i == 2 {
			if _, err := s.EnableDurability(dir, durable.Options{FsyncInterval: 0}); err != nil {
				t.Fatal(err)
			}
			durableShard = s
		}
		shards[i] = httptest.NewServer(s.Handler())
		t.Cleanup(shards[i].Close)
		urls[i] = shards[i].URL
	}
	coord, err := NewCoordinator(urls, Options{RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord)
	t.Cleanup(ts.Close)
	cl := client.New(ts.URL)
	if err := cl.Create("sf", server.CreateRequest{Type: "sfsketch", Width: 512, Depth: 4, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	ingestN(t, cl, "sf", 30_000) // several batches: every shard holds a share
	snapURL := ts.URL + "/v1/sketch/sf/snapshot"

	code, before := getSnapshot(t, snapURL)
	if code != http.StatusOK {
		t.Fatalf("first read: HTTP %d", code)
	}
	unchanged := coord.ops.NotModified.Load()
	if code, again := getSnapshot(t, snapURL); code != http.StatusOK || !bytes.Equal(again, before) {
		t.Fatalf("second read: HTTP %d, %d bytes, want the first read's %d", code, len(again), len(before))
	}
	if got := coord.ops.NotModified.Load() - unchanged; got != 3 {
		t.Fatalf("second read of an unchanged sketch: %d of 3 shards answered 304", got)
	}
	deadTag := etagOf(t, shards[2].URL+"/v1/sketch/sf/snapshot")

	dead := shards[2]
	dead.Close()
	if err := durableShard.KillDurability(); err != nil {
		t.Fatal(err)
	}
	code, body := getSnapshot(t, snapURL)
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), dead.URL) {
		t.Fatalf("strict read with a dead shard: HTTP %d %s, want 503 naming %s", code, body, dead.URL)
	}
	code, partial := getSnapshot(t, snapURL+"?allow_partial=true")
	if want := mergeOf(t, shardSnapshots(t, shards[:2], "sf")); code != http.StatusOK || !bytes.Equal(partial, want) {
		t.Fatalf("partial read: HTTP %d, %d bytes; want the %d-byte merge of the live shards' snapshots", code, len(partial), len(want))
	}

	l, err := net.Listen("tcp", dead.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	recovered := server.New()
	if _, err := recovered.EnableDurability(dir, durable.Options{FsyncInterval: 0}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recovered.CloseDurability() })
	back := &httptest.Server{Listener: l, Config: &http.Server{Handler: recovered.Handler()}}
	back.Start()
	t.Cleanup(back.Close)
	if tag := etagOf(t, back.URL+"/v1/sketch/sf/snapshot"); tag == deadTag {
		t.Fatalf("the recovered shard names its state %s, as before the kill", tag)
	}

	gathered, unchanged := coord.ops.GatherBytes.Load(), coord.ops.NotModified.Load()
	code, after := getSnapshot(t, snapURL)
	if code != http.StatusOK || !bytes.Equal(after, before) {
		t.Fatalf("read after the restart: HTTP %d, %d bytes; want the %d bytes read before the kill", code, len(after), len(before))
	}
	if got := coord.ops.NotModified.Load() - unchanged; got != 2 {
		t.Errorf("read after the restart: %d shards answered 304, want the 2 that stayed up", got)
	}
	if got := coord.ops.GatherBytes.Load() - gathered; got == 0 {
		t.Errorf("read after the restart: no envelope was read from the recovered shard")
	}
}

// etagOf is the ETag a shard's snapshot goes out with.
func etagOf(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if tag := resp.Header.Get("ETag"); tag != "" {
		return tag
	}
	t.Fatalf("GET %s: no ETag", url)
	return ""
}

// A conditional read is a read: it draws from the sketch's query budget
// as an unconditional one does, and a sketch over budget answers 429 to
// it, not 304 — on the shard and through the coordinator's slots. The
// budget composes: with budget B on every shard, B reads through the
// coordinator are answered and read B + 1 is a 429 carrying the largest
// Retry-After of the shards, in every form a read takes — a held
// /snapshot, a whole-state /query held and refolded, and a projected
// ?for= point query. A reply stored with a held fold is written only
// after every shard charged the read: the refused read answers nothing
// from it.
func TestGatherSlotUnderQueryBudget(t *testing.T) {
	const budget = 3
	shards := make([]*httptest.Server, 2)
	urls := make([]string, len(shards))
	for i := range shards {
		s := server.New()
		// Windows of one and two hours: the coordinator's 429 must carry
		// the second shard's longer wait.
		s.SetQueryBudget(server.QueryBudget{Queries: budget, Interval: time.Duration(i+1) * time.Hour})
		shards[i] = httptest.NewServer(s.Handler())
		t.Cleanup(shards[i].Close)
		urls[i] = shards[i].URL
	}
	coord, err := NewCoordinator(urls, Options{RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cl := coordClient(t, coord)
	for _, tc := range []struct {
		name  string
		req   server.CreateRequest
		write bool   // a line lands on one shard before every read: every read refolds
		held  uint64 // reads of the budget answered from the held fold
		read  func(name string) error
	}{
		{"snapshot-held", server.CreateRequest{Type: "hll", P: 10}, false, budget - 1, func(name string) error {
			_, err := cl.Snapshot(name)
			return err
		}},
		{"query-held", server.CreateRequest{Type: "hll", P: 10}, false, budget - 1, func(name string) error {
			_, err := cl.Query(name, nil)
			return err
		}},
		{"query-refolded", server.CreateRequest{Type: "hll", P: 10}, true, 0, func(name string) error {
			_, err := cl.Query(name, nil)
			return err
		}},
		{"query-for", server.CreateRequest{Type: "countmin", Width: 1024, Depth: 4}, false, 0, func(name string) error {
			_, err := cl.Query(name, url.Values{"item": {"a"}})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := cl.Create(tc.name, tc.req); err != nil {
				t.Fatal(err)
			}
			if err := cl.Add(tc.name, []string{"a", "b", "c"}); err != nil {
				t.Fatal(err)
			}
			isQuery := strings.HasPrefix(tc.name, "query")
			before := coord.ops.snapshot()
			var tag string // the slot's tag for shard 0 as the budget ran out
			for i := 0; i <= budget; i++ {
				if tc.write {
					if err := cl.Add(tc.name, []string{fmt.Sprint("w", i)}); err != nil {
						t.Fatal(err)
					}
				}
				answers := coord.ops.HeldAnswers.Load()
				err := tc.read(tc.name)
				if i < budget {
					if err != nil {
						t.Fatalf("read %d under budget: %v", i, err)
					}
					if s := coord.slots.m[slotKey{server.DefaultTenant, tc.name, false}]; s != nil {
						tag = string(s.shards[0].Tag)
					}
					continue
				}
				var se *client.StatusError
				if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests || se.RetryAfter <= time.Hour {
					t.Fatalf("read over budget through the coordinator: %v, want 429 with the second shard's Retry-After, over an hour", err)
				}
				if got := coord.ops.HeldAnswers.Load() - answers; got != 0 {
					t.Fatalf("the read over budget was answered from a stored reply: held_answers +%d", got)
				}
			}
			after := coord.ops.snapshot()
			if got := after.HeldFolds - before.HeldFolds; got != tc.held {
				t.Errorf("%d of %d reads answered from the held fold, want %d", got, budget, tc.held)
			}
			if want := map[bool]uint64{false: 0, true: tc.held}[isQuery]; after.HeldAnswers-before.HeldAnswers != want {
				t.Errorf("held_answers +%d, want %d", after.HeldAnswers-before.HeldAnswers, want)
			}
			if tc.name != "snapshot-held" {
				return
			}
			if got := after.NotModified - before.NotModified; got != 2*(budget-1) {
				t.Fatalf("%d shard replies were 304, want every one after the first read", got)
			}
			if tag == "" {
				t.Fatal("the slot holds no tag for shard 0")
			}
			// On the shard itself, holding the current tag changes nothing.
			req, _ := http.NewRequest("GET", urls[0]+"/v1/sketch/"+tc.name+"/snapshot", nil)
			req.Header.Set("If-None-Match", tag)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Errorf("conditional read over budget on the shard: HTTP %d, want 429", resp.StatusCode)
			}
		})
	}
}

// A sketch deleted and created again is never answered from what a slot
// kept of the old one: a delete through the coordinator drops its slots,
// and one done on the shards behind its back leaves a slot whose tags
// name entries that are gone.
func TestGatherSlotAfterRecreate(t *testing.T) {
	coord, shards := fleet(t, 3)
	ts := httptest.NewServer(coord)
	t.Cleanup(ts.Close)
	cl := client.New(ts.URL)
	req := server.CreateRequest{Type: "countmin", Width: 256, Depth: 4, Seed: 1}
	snapURL := ts.URL + "/v1/sketch/cm/snapshot"
	for round, recreate := range []func(){
		func() { // through the coordinator
			if err := cl.Delete("cm"); err != nil {
				t.Fatal(err)
			}
			if err := cl.Create("cm", req); err != nil {
				t.Fatal(err)
			}
		},
		func() { // on every shard, unknown to the coordinator
			for _, sh := range shards {
				scl := client.New(sh.URL)
				if err := scl.Delete("cm"); err != nil {
					t.Fatal(err)
				}
				if err := scl.Create("cm", req); err != nil {
					t.Fatal(err)
				}
			}
		},
	} {
		if round == 0 {
			if err := cl.Create("cm", req); err != nil {
				t.Fatal(err)
			}
		}
		ingestN(t, cl, "cm", 20_000)
		if code, _ := getSnapshot(t, snapURL); code != http.StatusOK {
			t.Fatalf("round %d: HTTP %d", round, code)
		}
		recreate()
		for i := 0; i < 3; i++ { // one batch a shard
			if err := cl.AddBatch("cm", []byte("fresh\t7\n")); err != nil {
				t.Fatal(err)
			}
		}
		code, got := getSnapshot(t, snapURL)
		if want := mergeOf(t, shardSnapshots(t, shards, "cm")); code != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("round %d: read after the sketch was created again: HTTP %d, not the merge of the new sketch's shards", round, code)
		}
	}
}

// The slots stay within slotBudget, the least recently read dropped
// first, and a slot over the budget by itself is dropped alone; a
// dropped slot in use is finished on and then forgotten.
func TestSlotCacheStaysInBudget(t *testing.T) {
	var c slotCache
	key := func(i int) slotKey { return slotKey{"t", fmt.Sprint(i), false} }
	const each = slotBudget / 4
	read := func(i, size int) *slot { // counted at size, not allocated
		s := c.get(key(i), 1)
		c.resize(s, size)
		return s
	}
	held := func() (names []string) {
		for e := c.lru.Front(); e != nil; e = e.Next() {
			names = append(names, e.Value.(*slot).key.name)
		}
		return names
	}
	for i := 0; i < 6; i++ {
		read(i, each)
	}
	read(2, each) // 2 is now the most recently read
	read(6, each)
	if got, want := fmt.Sprint(held()), "[6 2 5 4]"; got != want || c.bytes != slotBudget {
		t.Fatalf("slots %s holding %d bytes, want %s holding %d", got, c.bytes, want, slotBudget)
	}
	c.drop("t", "5")
	inUse := c.get(key(4), 1)
	c.drop("t", "4")
	c.resize(inUse, each) // the read that held it finishes: nothing counted
	read(7, slotBudget+1)
	if got, want := fmt.Sprint(held()), "[6 2]"; got != want || c.bytes != 2*each || len(c.m) != 2 {
		t.Fatalf("slots %s holding %d bytes (%d mapped), want %s holding %d", got, c.bytes, len(c.m), want, 2*each)
	}
	c.resize(c.get(key(6), 1), -1)
	if got := fmt.Sprint(held()); got != "[2]" || c.bytes != each {
		t.Fatalf("slots %s holding %d bytes after a refused merge dropped 6", got, c.bytes)
	}
}
