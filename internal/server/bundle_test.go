package server_test

import (
	"strconv"
	"testing"

	"repro/internal/cardinality"
	"repro/internal/core"
	"repro/internal/frequency"
	"repro/internal/server"
)

// TestBundleMergeFanIn posts 8 disjoint HLL shards in one GSKB bundle
// and checks the server's estimate covers their union — the fan-in
// path that tree-merges outside the sketch lock.
func TestBundleMergeFanIn(t *testing.T) {
	_, cl := newTestServer(t)
	if err := cl.Create("reach", server.CreateRequest{Type: "hll", P: 12, Seed: 1}); err != nil {
		t.Fatalf("create: %v", err)
	}
	const shards, perShard = 8, 5000
	envs := make([][]byte, shards)
	for s := 0; s < shards; s++ {
		h := cardinality.NewHLL(12, 1)
		for i := 0; i < perShard; i++ {
			h.Add([]byte("user-" + strconv.Itoa(s*perShard+i)))
		}
		env, err := h.MarshalBinary()
		if err != nil {
			t.Fatalf("shard %d marshal: %v", s, err)
		}
		envs[s] = env
	}
	if err := cl.Merge("reach", server.EncodeBundle(envs)); err != nil {
		t.Fatalf("bundle merge: %v", err)
	}
	est, err := cl.Estimate("reach", nil)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if relErr := core.RelErr(est, shards*perShard); relErr > 0.1 {
		t.Errorf("estimate %.1f after bundle merge of %d items, rel err %.3f", est, shards*perShard, relErr)
	}
}

// TestBundleMergeRejections drives the malformed and mismatched bundle
// cases through the HTTP layer: corrupt framing and cross-type
// envelopes must fail without touching the sketch.
func TestBundleMergeRejections(t *testing.T) {
	_, cl := newTestServer(t)
	if err := cl.Create("reach", server.CreateRequest{Type: "hll", P: 12, Seed: 1}); err != nil {
		t.Fatalf("create: %v", err)
	}
	hllEnv, err := cardinality.NewHLL(12, 1).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cmEnv, err := frequency.NewCountMin(1024, 4, 1).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		body []byte
	}{
		{"truncated header", []byte("GSKB\x02")},
		{"zero envelopes", server.EncodeBundle(nil)},
		{"short envelope payload", append(server.EncodeBundle([][]byte{hllEnv})[:12], 0xFF)},
		{"mixed types", server.EncodeBundle([][]byte{hllEnv, cmEnv})},
		{"trailing garbage", append(server.EncodeBundle([][]byte{hllEnv, hllEnv}), 1, 2, 3)},
	}
	for _, tc := range cases {
		if err := cl.Merge("reach", tc.body); err == nil {
			t.Errorf("%s: bundle merge succeeded, want error", tc.name)
		}
	}
	// A well-formed bundle of the wrong (but internally consistent)
	// type must 409 against the entry, same as a single envelope.
	if err := cl.Merge("reach", server.EncodeBundle([][]byte{cmEnv, cmEnv})); err == nil {
		t.Error("countmin bundle merged into hll entry")
	}
}

// TestEncodeBundleRoundTrip checks CombineBundle(EncodeBundle(x))
// equals the serial fold of x for a mergeable family.
func TestEncodeBundleRoundTrip(t *testing.T) {
	serial := cardinality.NewHLL(10, 7)
	envs := make([][]byte, 5)
	for s := range envs {
		h := cardinality.NewHLL(10, 7)
		for i := 0; i < 500; i++ {
			h.AddUint64(uint64(s*500 + i))
		}
		if err := serial.Merge(h); err != nil {
			t.Fatal(err)
		}
		env, err := h.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		envs[s] = env
	}
	combined, err := server.CombineBundle(server.EncodeBundle(envs))
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(combined) != string(want) {
		t.Error("tree-combined bundle envelope differs from the serial fold's")
	}
}
