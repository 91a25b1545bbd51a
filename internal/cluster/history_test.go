package cluster

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/randx"
	"repro/internal/server"
)

// historySeeds run in tier-1. A seed that fails prints its steps; pin
// it by committing its number as testdata/history/<seed>.seed, which
// the test runs beside these until the fault is mended.
var historySeeds = []uint64{1, 2, 3, 4, 5, 6}

const historySteps = 60

// TestHistory drives seeded histories through a coordinator over three
// durable nodes: creates (some with a TTL), adds, merges of a same-shape
// envelope, deletes, TTL sweeps, a node's kill and restart, and reads
// while it is down. The oracle is one in-memory server fed every
// operation the coordinator acknowledged. After every step the
// coordinator's /snapshot bytes and /query answer are the oracle's; a
// restarted node serves the bytes it served before its kill; and with a
// node down a read is a 503 that names it, never a different answer.
// The kill is KillDurability's, which syncs first: what is checked is
// that synced writes survive.
func TestHistory(t *testing.T) {
	seeds := append([]uint64(nil), historySeeds...)
	pinned, _ := filepath.Glob(filepath.Join("testdata", "history", "*.seed"))
	for _, p := range pinned {
		seed, err := strconv.ParseUint(strings.TrimSuffix(filepath.Base(p), ".seed"), 10, 64)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		seeds = append(seeds, seed)
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			h := newHistory(t, seed)
			for range historySteps {
				h.step()
			}
		})
	}
}

// history is one seeded run: the fleet under test, its coordinator, the
// oracle, a peer that builds merge envelopes, and what is live.
type history struct {
	t       *testing.T
	rng     *randx.RNG
	f       *fleet
	coord   string
	oracle  *server.Server
	oURL    string
	peer    string
	base    int64             // the created_unix of every TTL sketch
	live    map[string]string // name → its create body
	gone    []string          // names deleted or swept
	down    int               // the killed node, or -1
	kept    map[string][]byte // the killed node's snapshots, by name
	created int
	steps   []string
}

func newHistory(t *testing.T, seed uint64) *history {
	f := &fleet{t: t}
	for range 3 {
		f.add(server.New(), t.TempDir())
	}
	_, coord := f.coordinator()
	h := &history{t: t, rng: randx.New(seed), f: f, coord: coord, oracle: server.New(),
		base: time.Now().Unix(), live: map[string]string{}, down: -1}
	h.oURL = f.serve(h.oracle.Handler())
	h.peer = f.serve(server.New().Handler())
	return h
}

var historyFamilies = []string{
	`{"type":"countmin","width":256,"depth":4,"seed":7`,
	`{"type":"hll","p":10,"seed":7`,
	`{"type":"bloom","n":2000,"fpr":0.01,"seed":7`,
}

// fail ends the run with its seed and every step so far.
func (h *history) fail(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("%s\nsteps:\n  %s", fmt.Sprintf(format, args...), strings.Join(h.steps, "\n  "))
}

func (h *history) log(format string, args ...any) {
	h.steps = append(h.steps, fmt.Sprintf(format, args...))
}

// both sends one request to the coordinator and, when it succeeds, to
// the oracle, which must answer the same status. Refused, it must be a
// 503 with a node down; nothing else lets the two differ.
func (h *history) both(method, path, body string) bool {
	h.t.Helper()
	got := request(h.t, method, h.coord+path, body)
	if got.status/100 != 2 {
		if h.down < 0 || got.status != 503 {
			h.fail("%s %s: coordinator %d %s", method, path, got.status, got.body)
		}
		h.steps[len(h.steps)-1] += ": refused, 503"
		return false
	}
	if want := request(h.t, method, h.oURL+path, body); want.status != got.status {
		h.fail("%s %s: coordinator %d, oracle %d %s", method, path, got.status, want.status, want.body)
	}
	return true
}

func (h *history) pick() string {
	names := make([]string, 0, len(h.live))
	for n := range h.live {
		names = append(names, n)
	}
	if len(names) == 0 {
		return ""
	}
	slices.Sort(names)
	return names[h.rng.Intn(len(names))]
}

func (h *history) lines(name string) string {
	var b strings.Builder
	weighted := strings.HasPrefix(h.live[name], `{"type":"countmin"`)
	for i, n := 0, 1+h.rng.Intn(40); i < n; i++ {
		fmt.Fprintf(&b, "k%d", h.rng.Intn(60))
		if weighted {
			fmt.Fprintf(&b, "\t%d", 1+h.rng.Intn(5))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func (h *history) step() {
	h.t.Helper()
	up := h.down < 0
	name := h.pick()
	switch r := h.rng.Intn(100); {
	case (r < 15 || name == "") && up && len(h.live) < 4:
		name = fmt.Sprintf("s%d", h.created)
		h.created++
		body := historyFamilies[h.rng.Intn(len(historyFamilies))]
		if h.rng.Intn(3) == 0 {
			body += fmt.Sprintf(`,"ttl_s":60,"created_unix":%d`, h.base)
		}
		body += "}"
		h.log("create %s %s", name, body)
		if !h.both("POST", "/v1/sketch/"+name, body) {
			return
		}
		h.live[name] = body
	case r < 55 && name != "":
		body := h.lines(name)
		h.log("add %s (%d lines)", name, strings.Count(body, "\n"))
		h.both("POST", "/v1/sketch/"+name+"/add", body)
	case r < 65 && name != "":
		request(h.t, "DELETE", h.peer+"/v1/sketch/"+name, "")
		if got := request(h.t, "POST", h.peer+"/v1/sketch/"+name, h.live[name]); got.status/100 != 2 {
			h.fail("peer create %s: %d %s", name, got.status, got.body)
		}
		request(h.t, "POST", h.peer+"/v1/sketch/"+name+"/add", h.lines(name))
		env := request(h.t, "GET", h.peer+"/v1/sketch/"+name+"/snapshot", "")
		h.log("merge %s (%d bytes)", name, len(env.body))
		h.both("POST", "/v1/sketch/"+name+"/merge", string(env.body))
	case r < 70 && up && name != "":
		h.log("delete %s", name)
		if h.both("DELETE", "/v1/sketch/"+name, "") {
			delete(h.live, name)
			h.gone = append(h.gone, name)
		}
	case r < 78 && up:
		at := time.Unix(h.base+61, 0)
		h.log("sweep at created+61s")
		for _, n := range h.f.nodes {
			n.SweepExpired(at)
		}
		h.oracle.SweepExpired(at)
		for name, body := range h.live {
			if strings.Contains(body, "ttl_s") {
				delete(h.live, name)
				h.gone = append(h.gone, name)
			}
		}
	case r < 88 && up:
		h.down = h.rng.Intn(len(h.f.nodes))
		h.kept = map[string][]byte{}
		for name := range h.live {
			h.kept[name] = request(h.t, "GET", h.f.nodes[h.down].URL+"/v1/sketch/"+name+"/snapshot", "").body
		}
		h.log("kill node %d", h.down)
		h.f.Kill(h.down)
	case r < 100 && !up:
		h.log("restart node %d", h.down)
		h.f.Restart(h.down)
		for name, want := range h.kept {
			if got := request(h.t, "GET", h.f.nodes[h.down].URL+"/v1/sketch/"+name+"/snapshot", ""); got.status != 200 || string(got.body) != string(want) {
				h.fail("restarted node %d serves %s as %d, %d bytes; before its kill, %d bytes", h.down, name, got.status, len(got.body), len(want))
			}
		}
		h.down = -1
	default:
		h.log("read")
	}
	h.check()
}

// check compares every live sketch's snapshot and query, and one gone
// name's, between the coordinator and the oracle; with a node down, it
// asks for the 503 that names it.
func (h *history) check() {
	h.t.Helper()
	names := make([]string, 0, len(h.live)+1)
	for n := range h.live {
		names = append(names, n)
	}
	slices.Sort(names)
	if len(h.gone) > 0 && h.down < 0 {
		names = append(names, h.gone[h.rng.Intn(len(h.gone))])
	}
	for _, name := range names {
		for _, path := range []string{"/snapshot", "/query", "/query?item=k3"} {
			path = "/v1/sketch/" + name + path
			got := request(h.t, "GET", h.coord+path, "")
			if _, ok := h.live[name]; ok && h.down >= 0 {
				if dead := strings.TrimPrefix(h.f.nodes[h.down].URL, "http://"); got.status != 503 || !strings.Contains(string(got.body), dead) {
					h.fail("GET %s with node %d down: %d %s, want a 503 naming %s", path, h.down, got.status, got.body, dead)
				}
				continue
			}
			want := request(h.t, "GET", h.oURL+path, "")
			if got.status != want.status {
				h.fail("GET %s: coordinator %d %s, oracle %d %s", path, got.status, got.body, want.status, want.body)
			}
			if got.status != 200 {
				continue // the error texts of the two tiers differ
			}
			if strings.HasSuffix(path, "/snapshot") {
				if string(got.body) != string(want.body) {
					h.fail("GET %s: coordinator and oracle differ (%d and %d bytes)", path, len(got.body), len(want.body))
				}
				continue
			}
			var g, w map[string]any
			if json.Unmarshal(got.body, &g) != nil || json.Unmarshal(want.body, &w) != nil {
				h.fail("GET %s: not JSON: %s / %s", path, got.body, want.body)
			}
			delete(g, "shards_merged")
			if !reflect.DeepEqual(g, w) {
				h.fail("GET %s: coordinator %s, oracle %s", path, got.body, want.body)
			}
		}
	}
}
