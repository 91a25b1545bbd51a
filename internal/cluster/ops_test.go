package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/frequency"
	"repro/internal/registry"
	"repro/internal/server"
)

// bundleOf frames envelopes into one GSKB merge body.
func bundleOf(envs ...string) string {
	b := binary.LittleEndian.AppendUint32([]byte(server.BundleMagic), uint32(len(envs)))
	for _, env := range envs {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(env)))
		b = append(b, env...)
	}
	return string(b)
}

// probe is one request sent to both a single sketchd and a coordinator.
// differs names the reply keys the two tiers document differently;
// status, when set, is what both must answer (so that a probe meant to
// succeed cannot pass by failing alike on both).
type probe struct {
	sketch, query, body string
	differs             []string
	status              int
}

// peerEnvelope is a countmin of sketch "s"'s shape holding a few flows:
// what a merge probe posts.
var peerEnvelope = func() string {
	cm := frequency.NewCountMin(512, 4, 1)
	for i := 0; i < 100; i++ {
		cm.Add([]byte("flow-"+strconv.Itoa(i%17)), uint64(1+i%5))
	}
	env, err := registry.Marshal(cm)
	if err != nil {
		panic(err)
	}
	return string(env)
}()

// parityProbes holds, per row of server.Ops, the requests whose answers
// a 3-shard cluster and one server must agree on: a success, and the
// ways the request itself can be at fault. Sketch "s" (a countmin with a
// batch in it) and "gone" exist when the probes run.
var parityProbes = map[string][]probe{
	"create": {
		{sketch: "fresh", body: `{"type":"hll","p":10}`, differs: []string{"type", "shards", "tenant"}},
		{sketch: "fresh", body: `{"type":"hll","p":10}`}, // 409: the name is taken
		{sketch: "odd", body: `{"type":"no-such-family"}`},
	},
	"add": {
		{sketch: "s", body: "k-1\t2\nk-2\nk-3\t5\nk-4\nk-5\nk-6\n"},
		{sketch: "missing", body: "k-1\n"},
		{sketch: "s", body: "k-1\tnot-a-weight\n"},
		{sketch: "s", body: "k-7\t2\nk-8\tnot-a-weight\nk-9\n"}, // 400, and nothing of it applied: the snapshot probe below
		{sketch: "s", body: "", status: http.StatusOK},          // {"added":0}
		{sketch: "missing", body: ""},                           // 404, not an ack of nothing
	},
	"query": {
		{sketch: "s", query: "?item=k-1", differs: []string{"shards_merged", "tenant"}},
		{sketch: "missing"},
	},
	"merge": { // the snapshot probe below then compares the merged bytes
		{sketch: "s", body: peerEnvelope, status: http.StatusOK},
		{sketch: "s", body: bundleOf(peerEnvelope, peerEnvelope), status: http.StatusOK},
		{sketch: "s", body: "not an envelope"},
		{sketch: "gone", body: peerEnvelope}, // a countmin into an hll
		{sketch: "missing", body: peerEnvelope},
	},
	"snapshot": {{sketch: "s"}, {sketch: "missing"}, {sketch: "s", query: "?wire=thin"}},
	"delete":   {{sketch: "gone"}, {sketch: "gone"}}, // 200, then 404
	"list":     {{}},
	"groupby":  {{query: "?type=hll&prefix=by-", body: "g\titem\n"}},
	"overlap":  {{query: "?sketches=s,s"}},
	"types":    {{}},

	// Answered by whichever process is asked, or mounted on one tier
	// only: the statuses are the row's, the documents are each tier's own.
	"status": {{}}, "cluster-status": {{}}, "statsz": {{}},
	"repl-status": {{}}, "repl-file": {{sketch: "wal-1.log"}}, "repl-seal": {{}},
}

// reply is what a request got back.
type reply struct {
	status int
	header http.Header
	body   []byte
}

// request sends method url with body and returns the reply, its body
// read: this package's one way to make a request by hand.
func request(t *testing.T, method, url, body string) reply {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return reply{resp.StatusCode, resp.Header, data}
}

// doc is the reply's status and its body, a JSON object.
func (r reply) doc(t *testing.T) (int, map[string]any) {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(r.body, &doc); err != nil {
		t.Fatalf("bad JSON %q: %v", r.body, err)
	}
	return r.status, doc
}

// send sends probe p as operation op in tenant.
func send(t *testing.T, base string, op server.Op, tenant string, p probe) reply {
	t.Helper()
	return request(t, op.Method, base+string(op.AppendPath(nil, tenant, p.sketch))+p.query, p.body)
}

// An operation means the same thing asked of one sketchd or of a
// coordinator over three: for every row of the table, in the default
// and a named tenant, the two answer with the same status and the same
// JSON (but for the keys the row's probe names) or the same envelope
// bytes — or the coordinator answers the 501 the row declares. That
// includes a request that is itself at fault (unknown sketch, duplicate
// name, malformed batch): the shards' 4xx is the cluster's answer, not a
// 503 that invites a retry which can never succeed.
func TestOperationParity(t *testing.T) {
	for _, tenant := range []string{"", "acme"} {
		single := newFleet(t, 1).nodes[0].URL
		_, cluster := newFleet(t, 3).coordinator()
		for _, base := range []string{single, cluster} {
			for _, setup := range []probe{
				{sketch: "s", body: `{"type":"countmin","width":512,"depth":4}`},
				{sketch: "gone", body: `{"type":"hll","p":10}`},
			} {
				if r := send(t, base, server.Named("create"), tenant, setup); r.status != http.StatusCreated {
					t.Fatalf("setup create %s: %d %s", setup.sketch, r.status, r.body)
				}
			}
			if r := send(t, base, server.Named("add"), tenant, probe{sketch: "s", body: string(weightedBatch(false))}); r.status != http.StatusOK {
				t.Fatalf("setup add: %d %s", r.status, r.body)
			}
		}

		for _, op := range server.Ops {
			probes, ok := parityProbes[op.Name]
			if !ok {
				t.Fatalf("operation %q has no parity probe: add one to parityProbes", op.Name)
			}
			for i, p := range probes {
				one, many := send(t, single, op, tenant, p), send(t, cluster, op, tenant, p)
				at := op.Name + " probe " + string(rune('0'+i)) + " tenant " + tenant
				switch op.Cluster {
				case server.ShardLocal:
					var doc map[string]string
					if json.Unmarshal(many.body, &doc); many.status != http.StatusNotImplemented ||
						!strings.HasPrefix(doc["error"], op.Name+" is shard-local") || one.status == http.StatusNotImplemented {
						t.Errorf("%s: coordinator %d %s (sketchd %d), want the row's 501", at, many.status, many.body, one.status)
					}
					continue
				case server.ServerOnly:
					if many.status != http.StatusNotFound || one.status == http.StatusNotFound {
						t.Errorf("%s: sketchd %d, coordinator %d, want it mounted on sketchd only", at, one.status, many.status)
					}
					continue
				case server.CoordinatorOnly:
					if one.status != http.StatusNotFound || many.status != http.StatusOK {
						t.Errorf("%s: sketchd %d, coordinator %d, want it mounted on the coordinator only", at, one.status, many.status)
					}
					continue
				}
				if one.status != many.status || p.status != 0 && one.status != p.status {
					t.Errorf("%s: sketchd %d %s, coordinator %d %s (want %d)", at, one.status, one.body, many.status, many.body, p.status)
					continue
				}
				if one.status/100 != 2 || op.Cluster == server.Local && op.Name != "types" {
					continue // a refusal's text, and a process's own status, are each tier's
				}
				if one.header.Get("Content-Type") == "application/octet-stream" {
					if !bytes.Equal(one.body, many.body) || many.header.Get("Content-Length") == "" {
						t.Errorf("%s: envelopes differ (%d vs %d bytes, Content-Length %q)", at, len(one.body), len(many.body), many.header.Get("Content-Length"))
					}
					continue
				}
				var a, b map[string]any
				if err := json.Unmarshal(one.body, &a); err != nil {
					t.Fatalf("%s: sketchd reply %q: %v", at, one.body, err)
				}
				if err := json.Unmarshal(many.body, &b); err != nil {
					t.Fatalf("%s: coordinator reply %q: %v", at, many.body, err)
				}
				for _, k := range p.differs {
					delete(a, k)
					delete(b, k)
				}
				if !reflect.DeepEqual(a, b) {
					t.Errorf("%s: sketchd %s, coordinator %s", at, one.body, many.body)
				}
			}
		}
	}
}

// Every row of the table resolves, on the tier that serves it, to the
// pattern the row spells (and its tenant twin), and on the other tier to
// nothing; and no file but ops.go registers a route.
func TestEveryRowIsMounted(t *testing.T) {
	coord, _ := newFleet(t, 1).coordinator()
	muxes := map[bool]*http.ServeMux{false: server.New().Handler().(*http.ServeMux), true: coord.mux}
	for _, op := range server.Ops {
		for _, tenant := range []string{"", "acme"} {
			want := op.Method + " " + op.Pattern
			if tenant != "" && op.Tenant {
				want = op.Method + " /v1/t/{tenant}" + strings.TrimPrefix(op.Pattern, "/v1")
			}
			req := httptest.NewRequest(op.Method, string(op.AppendPath(nil, tenant, "x")), nil)
			for coordinator, mux := range muxes {
				serves := op.Cluster != server.ServerOnly && op.Cluster != server.CoordinatorOnly ||
					coordinator == (op.Cluster == server.CoordinatorOnly)
				if _, got := mux.Handler(req); serves && got != want || !serves && got != "" {
					t.Errorf("%s (coordinator=%v): resolves to %q, want %q (served: %v)", op.Name, coordinator, got, want, serves)
				}
			}
		}
	}
	for _, dir := range []string{".", "../server", "../server/client"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no sources in %s (%v)", dir, err)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(string(src), ".Handle"+"Func(") && !strings.HasSuffix(f, "_test.go") && filepath.Base(f) != "ops.go" {
				t.Errorf("%s registers a route of its own: every route is a row of server.Ops, mounted by server.Mount", f)
			}
		}
	}
}
