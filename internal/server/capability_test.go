package server_test

// Capability-gating tests: every type on GET /v1/types can be created,
// ingested, queried, and snapshotted over HTTP with zero per-type test
// code (batches are generated from the registry's advertised input
// kind); the gates themselves — non-servable create, non-mergeable
// merge, cross-type merge, seed mismatch — map to the right statuses.

import (
	"net/http"
	"strings"
	"testing"

	"repro/internal/cardinality"
	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/server/client"
)

// batchFor renders a well-formed ingest batch for a registry input
// kind, valid under every type's default parameters.
func batchFor(k registry.InputKind) string {
	switch k {
	case registry.InputItems:
		return "alpha\nbeta\ngamma\n"
	case registry.InputWeightedItems:
		return "alpha\t3\nbeta\n"
	case registry.InputSignedItems:
		return "alpha\t-2\nbeta\t+4\ngamma\n"
	case registry.InputFloats:
		return "1.5\n2.25\n-0.5\n"
	case registry.InputUintValues:
		return "7\t2\n42\n"
	case registry.InputTurnstile:
		return "3\t5\n9\n"
	case registry.InputEvents:
		return "x\nx\nx\n"
	case registry.InputEdges:
		return "0\t1\n2\t3\n"
	case registry.InputWeightedFloatItems:
		return "alpha\t1.5\nbeta\n"
	}
	return ""
}

// TestEveryServableTypeOverHTTP walks the live type catalog and runs
// the full lifecycle for each entry. The handler path has no per-type
// code, and neither does this test: the catalog itself says how to
// construct input.
func TestEveryServableTypeOverHTTP(t *testing.T) {
	cl := client.New(server.ServeLoop(t, server.New().Handler(), nil).URL)
	types, err := cl.Types()
	if err != nil {
		t.Fatalf("GET /v1/types: %v", err)
	}
	if len(types) < 15 {
		t.Fatalf("catalog lists %d types, want at least 15", len(types))
	}
	for _, ti := range types {
		ti := ti
		t.Run(ti.Name, func(t *testing.T) {
			d, ok := registry.Lookup(ti.Name)
			if !ok {
				t.Fatalf("catalog type %q not in registry", ti.Name)
			}
			name := "cap-" + ti.Name
			if err := cl.Create(name, server.CreateRequest{Type: ti.Name}); err != nil {
				t.Fatalf("create: %v", err)
			}
			if err := cl.AddBatch(name, []byte(batchFor(d.Input))); err != nil {
				t.Fatalf("add: %v", err)
			}
			if _, err := cl.Query(name, nil); err != nil {
				t.Fatalf("summary query: %v", err)
			}
			snap, err := cl.Snapshot(name)
			if err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			_, dd, err := registry.Decode(snap)
			if err != nil {
				t.Fatalf("snapshot does not decode generically: %v", err)
			}
			if dd.Name != ti.Name {
				t.Fatalf("snapshot decodes as %q, want %q", dd.Name, ti.Name)
			}
			if ti.Mergeable {
				// Self-merge: a sketch's own snapshot is always compatible.
				if err := cl.Merge(name, snap); err != nil {
					t.Fatalf("self-merge: %v", err)
				}
			} else {
				// The merge gate must answer 405, not 400 or 500.
				if err := cl.Merge(name, snap); err == nil || !strings.Contains(err.Error(), "405") {
					t.Fatalf("merge into non-mergeable %s: %v, want HTTP 405", ti.Name, err)
				}
			}
		})
	}
}

func TestMergeGates(t *testing.T) {
	ts := server.ServeLoop(t, server.New().Handler(), nil)
	cl := client.New(ts.URL)
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/octet-stream", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// Cross-type: a kll envelope into a theta sketch. Both are valid
	// mergeable types; the payload is well-formed, so this is a 409
	// conflict, not a 400.
	if err := cl.Create("t", server.CreateRequest{Type: "theta"}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Create("q", server.CreateRequest{Type: "kll"}); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddBatch("q", []byte("1.0\n2.0\n")); err != nil {
		t.Fatal(err)
	}
	snap, err := cl.Snapshot("q")
	if err != nil {
		t.Fatal(err)
	}
	if code := post("/v1/sketch/t/merge", string(snap)); code != http.StatusConflict {
		t.Errorf("cross-type merge: %d, want 409", code)
	}

	// Same type, different seed: hashes disagree, so the sketch itself
	// reports core.ErrIncompatible — also a 409.
	if err := cl.Create("h", server.CreateRequest{Type: "hll", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	peer := cardinality.NewHLL(14, 2)
	peer.Add([]byte("x"))
	env, _ := peer.MarshalBinary()
	if code := post("/v1/sketch/h/merge", string(env)); code != http.StatusConflict {
		t.Errorf("seed-mismatch merge: %d, want 409", code)
	}

	// A retired wire tag decodes to a corrupt-payload error: 400.
	retired := string([]byte{'G', 'S', 'K', '1', core.TagL0Sampler, 1})
	if code := post("/v1/sketch/t/merge", retired); code != http.StatusBadRequest {
		t.Errorf("retired-tag merge: %d, want 400", code)
	}
}

// TestNonServableCreate pins the create gate: simhash decodes and
// inspects but has no streaming ingest, so creating one must 400.
func TestNonServableCreate(t *testing.T) {
	cl := client.New(server.ServeLoop(t, server.New().Handler(), nil).URL)
	err := cl.Create("sh", server.CreateRequest{Type: "simhash"})
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("create simhash: %v, want HTTP 400", err)
	}
}

// TestCreateWithParams exercises the schema-addressed Params map,
// including rejection of unknown names.
func TestCreateWithParams(t *testing.T) {
	cl := client.New(server.ServeLoop(t, server.New().Handler(), nil).URL)
	if err := cl.Create("g", server.CreateRequest{
		Type:   "gk",
		Params: map[string]float64{"eps": 0.001},
	}); err != nil {
		t.Fatalf("create gk with eps: %v", err)
	}
	err := cl.Create("g2", server.CreateRequest{
		Type:   "gk",
		Params: map[string]float64{"nope": 1},
	})
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("create with unknown param: %v, want HTTP 400", err)
	}
	// In range for the schema, refused by the one place a shape is
	// valid or not (frequency.Layout): fused layouts stop at depth 21.
	for _, typ := range []string{"countmin", "countsketch"} {
		err := cl.Create("deep-"+typ, server.CreateRequest{
			Type:   typ,
			Params: map[string]float64{"fused": 1, "depth": 22},
		})
		if err == nil || !strings.Contains(err.Error(), "400") {
			t.Errorf("create fused %s with depth 22: %v, want HTTP 400", typ, err)
		}
		if err := cl.Create("deep-"+typ, server.CreateRequest{
			Type:   typ,
			Params: map[string]float64{"fused": 1, "depth": 21},
		}); err != nil {
			t.Errorf("create fused %s with depth 21: %v", typ, err)
		}
	}
}
