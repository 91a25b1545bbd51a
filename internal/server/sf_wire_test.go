package server

// Slim-wire and seed-salting tests: the /snapshot?wire= negotiation,
// the per-family wire-byte counters it feeds, and the -salt-seeds
// derivation (including its WAL-stamping contract: recovery replays
// stamped seeds even on a server that never enabled salting).

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/durable"
	"repro/internal/frequency"
	typereg "repro/internal/registry"
)

func TestSnapshotWireSlim(t *testing.T) {
	ts := serveLoop(t, New().Handler(), nil)
	do(t, "POST", ts.URL+"/v1/sketch/sf", `{"type":"sfsketch","width":64,"depth":3}`).ok(t)
	do(t, "POST", ts.URL+"/v1/sketch/sf/add", "alpha\t5\nbeta\t2\ngamma").ok(t)
	do(t, "POST", ts.URL+"/v1/sketch/hll-full", `{"type":"hll"}`).ok(t)
	do(t, "POST", ts.URL+"/v1/sketch/hll-full/add", "a\nb\nc").ok(t)

	r := do(t, "GET", ts.URL+"/v1/sketch/sf/snapshot", "")
	full, hdr := r.ok(t), r.header.Get("X-Sketch-Wire")
	if hdr != "" {
		t.Fatalf("full snapshot carries X-Sketch-Wire=%q", hdr)
	}
	r = do(t, "GET", ts.URL+"/v1/sketch/sf/snapshot?wire=slim", "")
	slim, hdr := r.ok(t), r.header.Get("X-Sketch-Wire")
	if hdr != "slim" {
		t.Fatalf("slim snapshot header = %q, want slim", hdr)
	}
	if len(slim) >= len(full) {
		t.Fatalf("slim envelope %d bytes, full %d: no wire saving", len(slim), len(full))
	}
	inst, d, err := typereg.Decode(slim)
	if err != nil {
		t.Fatal(err)
	}
	sf, ok := inst.(*frequency.SFSketch)
	if !ok || d.Name != "sfsketch" {
		t.Fatalf("slim envelope decoded as %T / %s", inst, d.Name)
	}
	if !sf.SlimOnly() {
		t.Fatal("slim envelope decoded with a fat stage")
	}
	if got := sf.EstimateString("alpha"); got < 5 {
		t.Fatalf("slim estimate(alpha) = %d, want >= 5", got)
	}

	// Families without a slim form answer ?wire=slim with their full
	// envelope and no header — the hint is safe everywhere.
	hfull := do(t, "GET", ts.URL+"/v1/sketch/hll-full/snapshot", "").ok(t)
	r = do(t, "GET", ts.URL+"/v1/sketch/hll-full/snapshot?wire=slim", "")
	hslim, hdr := r.ok(t), r.header.Get("X-Sketch-Wire")
	if hdr != "" || !bytes.Equal(hfull, hslim) {
		t.Fatalf("hll ?wire=slim: header %q, bytes equal %v — want full fallback", hdr, bytes.Equal(hfull, hslim))
	}

	// Explicit ?wire=full and the default agree; junk modes are a 400.
	if f2 := do(t, "GET", ts.URL+"/v1/sketch/sf/snapshot?wire=full", "").ok(t); !bytes.Equal(full, f2) {
		t.Fatal("?wire=full differs from the default snapshot")
	}
	if code := do(t, "GET", ts.URL+"/v1/sketch/sf/snapshot?wire=thin", "").code; code != http.StatusBadRequest {
		t.Fatalf("?wire=thin: HTTP %d, want 400", code)
	}

	// The wire counters saw exactly the traffic above.
	var st StatusResponse
	if err := json.Unmarshal(do(t, "GET", ts.URL+"/v1/status", "").ok(t), &st); err != nil {
		t.Fatal(err)
	}
	byType := map[string]WireStat{}
	for _, w := range st.Wire {
		byType[w.Type] = w
	}
	sfw := byType["sfsketch"]
	if sfw.SlimSnapshots != 1 || sfw.SlimBytes != uint64(len(slim)) {
		t.Fatalf("sfsketch wire stats %+v: want 1 slim snapshot of %d bytes", sfw, len(slim))
	}
	if sfw.FullSnapshots != 2 || sfw.FullBytes != 2*uint64(len(full)) {
		t.Fatalf("sfsketch wire stats %+v: want 2 full snapshots of %d bytes", sfw, len(full))
	}
	if hw := byType["hll"]; hw.FullSnapshots != 2 || hw.SlimSnapshots != 0 {
		t.Fatalf("hll wire stats %+v: want 2 full snapshots, 0 slim", hw)
	}
}

func TestSaltSeedsDerivation(t *testing.T) {
	salted := New()
	salted.SetSaltSeeds(true)
	ts := serveLoop(t, salted.Handler(), nil)
	plainSrv := serveLoop(t, New().Handler(), nil)

	seedOf := func(base, name string) uint64 {
		t.Helper()
		env := do(t, "GET", base+"/v1/sketch/"+name+"/snapshot", "").ok(t)
		inst, _, err := typereg.Decode(env)
		if err != nil {
			t.Fatal(err)
		}
		return inst.(*frequency.CountMin).Seed()
	}

	for _, base := range []string{ts.URL, plainSrv.URL} {
		do(t, "POST", base+"/v1/sketch/a", `{"type":"countmin"}`).ok(t)
		do(t, "POST", base+"/v1/sketch/b", `{"type":"countmin"}`).ok(t)
		do(t, "POST", base+"/v1/sketch/c", `{"type":"countmin","seed":5}`).ok(t)
	}

	// Unsalted: seedless creates share the default seed. Salted: every
	// (tenant, name) derives its own, and names diverge.
	if a, b := seedOf(plainSrv.URL, "a"), seedOf(plainSrv.URL, "b"); a != b {
		t.Fatalf("unsalted seeds differ: %d vs %d", a, b)
	}
	a, b := seedOf(ts.URL, "a"), seedOf(ts.URL, "b")
	if a == b {
		t.Fatal("salted server gave two names the same seed")
	}
	if a == seedOf(plainSrv.URL, "a") {
		t.Fatal("salted seed equals the default seed")
	}
	// An explicit seed always wins over the salt.
	if got := seedOf(ts.URL, "c"); got != 5 {
		t.Fatalf("explicit seed overridden: got %d, want 5", got)
	}
	// A tenant namespace derives differently from the default tenant for
	// the same sketch name.
	do(t, "POST", ts.URL+"/v1/t/acme/sketch/a", `{"type":"countmin"}`).ok(t)
	env := do(t, "GET", ts.URL+"/v1/t/acme/sketch/a/snapshot", "").ok(t)
	inst, _, err := typereg.Decode(env)
	if err != nil {
		t.Fatal(err)
	}
	if inst.(*frequency.CountMin).Seed() == a {
		t.Fatal("tenant acme derived the default tenant's seed")
	}
}

func TestSaltSeedsStampedIntoWAL(t *testing.T) {
	// The derived seed must ride in the WAL-logged CreateRequest, so an
	// UNSALTED restart recovers byte-identical state: replay reads the
	// stamp, it never re-derives.
	dir := t.TempDir()
	s1 := New()
	s1.SetSaltSeeds(true)
	if _, err := s1.EnableDurability(dir, durable.Options{FsyncInterval: 0}); err != nil {
		t.Fatal(err)
	}
	ts1 := serveLoop(t, s1.Handler(), nil)
	do(t, "POST", ts1.URL+"/v1/sketch/salted", `{"type":"sfsketch","width":64,"depth":3}`).ok(t)
	do(t, "POST", ts1.URL+"/v1/sketch/salted/add", "x\t9\ny\nz").ok(t)
	do(t, "POST", ts1.URL+"/v1/ingest/groupby?type=countmin&prefix=g-", "k1\thot\t2\nk2\tcold").ok(t)
	want := do(t, "GET", ts1.URL+"/v1/sketch/salted/snapshot", "").ok(t)
	wantG1 := do(t, "GET", ts1.URL+"/v1/sketch/g-k1/snapshot", "").ok(t)
	if err := s1.dur.Sync(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	s1.dur.Kill()

	s2, ts2, _ := durableServer(t, nil, dir, durable.Options{FsyncInterval: 0}) // salting NOT enabled
	defer s2.CloseDurability()
	if got := do(t, "GET", ts2.URL+"/v1/sketch/salted/snapshot", "").ok(t); !bytes.Equal(got, want) {
		t.Fatal("recovered salted sketch is not byte-identical")
	}
	if got := do(t, "GET", ts2.URL+"/v1/sketch/g-k1/snapshot", "").ok(t); !bytes.Equal(got, wantG1) {
		t.Fatal("recovered salted group sketch is not byte-identical")
	}

	// Group sketches of one fan-out share the template's derived seed
	// (one template, one WAL record), and it is not the default.
	seedFor := func(name string) uint64 {
		env := do(t, "GET", ts2.URL+"/v1/sketch/"+name+"/snapshot", "").ok(t)
		inst, _, err := typereg.Decode(env)
		if err != nil {
			t.Fatal(err)
		}
		return inst.(*frequency.CountMin).Seed()
	}
	k1, k2 := seedFor("g-k1"), seedFor("g-k2")
	if k1 != k2 {
		t.Fatalf("group sketches derived different seeds: %d vs %d", k1, k2)
	}
	if k1 == 1 {
		t.Fatal("group-by template was not salted")
	}
}

// TestSlimEnvelopeBundleCombine pins slim shipping through the GSKB
// bundle path: N slim SF envelopes gathered from different servers
// combine into one slim envelope whose estimates never undercount the
// union — the federated fan-in pays slim bytes per site.
func TestSlimEnvelopeBundleCombine(t *testing.T) {
	var envs [][]byte
	truth := map[string]uint64{}
	for site := 0; site < 3; site++ {
		sf := frequency.NewSFSketch(128, 4, 1024, 4, 9)
		for i := 0; i < 500; i++ {
			item := []byte{byte(site), byte(i), byte(i >> 4)}
			sf.Add(item, 1)
			truth[string(item)]++
		}
		env, err := sf.MarshalSlim()
		if err != nil {
			t.Fatal(err)
		}
		envs = append(envs, env)
	}
	combined, err := CombineBundle(EncodeBundle(envs))
	if err != nil {
		t.Fatalf("combine slim bundle: %v", err)
	}
	inst, _, err := typereg.Decode(combined)
	if err != nil {
		t.Fatal(err)
	}
	merged := inst.(*frequency.SFSketch)
	for item, want := range truth {
		if got := merged.EstimateString(item); got < want {
			t.Fatalf("combined slim bundle undercounts %q: %d < %d", item, got, want)
		}
	}
}
