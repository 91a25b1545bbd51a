package server

// The shard side of query pushdown: GET …/snapshot?for=<escaped query>
// answers with a registry.Projection when the family projects that
// query, and with exactly the envelope it would have served otherwise.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/url"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	typereg "repro/internal/registry"
)

func TestSnapshotForProjects(t *testing.T) {
	ts := serveLoop(t, New().Handler(), nil)
	do(t, "POST", ts.URL+"/v1/sketch/cm", `{"type":"countmin","width":4096,"depth":4}`).ok(t)
	do(t, "POST", ts.URL+"/v1/sketch/cm/add", "alpha\t5\nbeta\t2\ngamma").ok(t)
	do(t, "POST", ts.URL+"/v1/sketch/hll", `{"type":"hll"}`).ok(t)
	do(t, "POST", ts.URL+"/v1/sketch/hll/add", "a\nb\nc").ok(t)
	do(t, "POST", ts.URL+"/v1/sketch/sf", `{"type":"sfsketch","width":64,"depth":3}`).ok(t)
	do(t, "POST", ts.URL+"/v1/sketch/sf/add", "alpha\t5").ok(t)

	forAlpha := "for=" + url.QueryEscape("item=alpha")
	resp, err := http.Get(ts.URL + "/v1/sketch/cm/snapshot?" + forAlpha)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Sketch-Wire") != "projection" {
		t.Fatalf("?for=item=alpha: HTTP %d, X-Sketch-Wire %q", resp.StatusCode, resp.Header.Get("X-Sketch-Wire"))
	}
	if body.Len() >= 1024 || resp.Header.Get("Content-Length") != strconv.Itoa(body.Len()) {
		t.Errorf("projection is %d bytes (Content-Length %q): want < 1 KB, declared", body.Len(), resp.Header.Get("Content-Length"))
	}
	inst, d, err := typereg.Decode(body.Bytes())
	if err != nil || d.Tag != core.TagProjection {
		t.Fatalf("projection envelope decodes as %v, %v", d, err)
	}
	got, err := d.Bind.Query(inst, url.Values{"item": {"alpha"}})
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]any
	json.Unmarshal(do(t, "GET", ts.URL+"/v1/sketch/cm/query?item=alpha", "").ok(t), &want)
	if float64(got["estimate"].(uint64)) != want["estimate"] || float64(got["n"].(uint64)) != want["n"] {
		t.Errorf("finished projection %v, /query %v", got, want)
	}

	// Everything that does not project is served as if for= were absent.
	full := do(t, "GET", ts.URL+"/v1/sketch/cm/snapshot", "").ok(t)
	for _, c := range []struct{ name, query, hdr string }{
		{"cm", "for=" + url.QueryEscape("k=3"), ""}, // not a query countmin projects
		{"hll", forAlpha, ""},                       // not a projecting family
		{"sf", "wire=slim&" + forAlpha, "slim"},     // wire= still negotiates underneath
	} {
		resp, err := http.Get(ts.URL + "/v1/sketch/" + c.name + "/snapshot?" + c.query)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Sketch-Wire") != c.hdr {
			t.Errorf("%s?%s: HTTP %d, X-Sketch-Wire %q, want 200 %q", c.name, c.query, resp.StatusCode, resp.Header.Get("X-Sketch-Wire"), c.hdr)
		}
		if c.name == "cm" && !bytes.Equal(b.Bytes(), full) {
			t.Errorf("cm?%s is not the full envelope", c.query)
		}
	}
	if resp, _ := http.Get(ts.URL + "/v1/sketch/cm/snapshot?for=" + url.QueryEscape("item=%zz")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed for=: HTTP %d, want 400", resp.StatusCode)
	}

	// The projection column sits next to full and slim on both surfaces.
	for _, path := range []string{"/v1/status", "/debug/statsz"} {
		var doc struct{ Wire []WireStat }
		json.Unmarshal(do(t, "GET", ts.URL+path, "").ok(t), &doc)
		var cm WireStat
		for _, row := range doc.Wire {
			if row.Type == "countmin" {
				cm = row
			}
		}
		if cm.Projections != 1 || cm.ProjBytes != uint64(body.Len()) || cm.FullSnapshots != 2 {
			t.Errorf("%s countmin wire row %+v: want 1 projection of %d bytes, 2 full", path, cm, body.Len())
		}
	}
}

// A projected read spends a query-budget token like any other read.
func TestSnapshotForIsMetered(t *testing.T) {
	s := New()
	s.SetQueryBudget(QueryBudget{Queries: 2, Interval: time.Hour})
	ts := serveLoop(t, s.Handler(), nil)
	do(t, "POST", ts.URL+"/v1/sketch/cm", `{"type":"countmin"}`).ok(t)
	u := ts.URL + "/v1/sketch/cm/snapshot?for=" + url.QueryEscape("item=a")
	for i, want := range []int{200, 200, 429} {
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want || (want == 429 && resp.Header.Get("Retry-After") == "") {
			t.Errorf("projected read %d: HTTP %d (Retry-After %q), want %d", i, resp.StatusCode, resp.Header.Get("Retry-After"), want)
		}
	}
}
