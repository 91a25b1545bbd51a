package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/server"
)

// tiers are the two handlers sketchd serves: a shard's and a
// coordinator's (over a shard nothing here dials).
func tiers(t *testing.T) map[string]http.Handler {
	coord, err := cluster.NewCoordinator([]string{"http://127.0.0.1:1"}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]http.Handler{"server": server.New().Handler(), "coordinator": coord}
}

// get serves h as sketchd does, through server.Listen, and GETs path
// from it.
func get(t *testing.T, h http.Handler, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(serveLoop(t, h) + path)
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

// TestPprofOffIsNotFound: without -pprof neither tier answers under
// /debug/pprof/, and the routes it would shadow still answer with it.
func TestPprofOffIsNotFound(t *testing.T) {
	for name, h := range tiers(t) {
		for _, path := range []string{"/debug/pprof/", "/debug/pprof/profile?seconds=1", "/debug/pprof/heap"} {
			if code, _ := get(t, withPprof(h, false), path); code != http.StatusNotFound {
				t.Errorf("%s %s with -pprof off: %d, want 404", name, path, code)
			}
		}
		if code, _ := get(t, withPprof(h, true), "/v1/types"); code != http.StatusOK {
			t.Errorf("%s /v1/types with -pprof on: %d, want 200", name, code)
		}
	}
}

// TestPprofOnServesProfiles: with -pprof on, both tiers list the
// profiles, and a one-second CPU profile of a shard is a well-formed
// gzip-compressed profile.proto message whose sample type is CPU time.
func TestPprofOnServesProfiles(t *testing.T) {
	for name, h := range tiers(t) {
		if code, body := get(t, withPprof(h, true), "/debug/pprof/"); code != http.StatusOK || !bytes.Contains(body, []byte("goroutine")) {
			t.Errorf("%s /debug/pprof/ with -pprof on: %d, %d bytes", name, code, len(body))
		}
	}
	code, body := get(t, withPprof(server.New().Handler(), true), "/debug/pprof/profile?seconds=1")
	if code != http.StatusOK {
		t.Fatalf("profile: %d %s", code, body)
	}
	zr, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("profile is not gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	strs, err := protoStrings(raw, 6) // Profile.string_table
	if err != nil {
		t.Fatalf("profile is not a protobuf message: %v", err)
	}
	for _, want := range []string{"samples", "count", "cpu", "nanoseconds"} {
		if !slices.Contains(strs, want) {
			t.Errorf("profile's string table lacks %q: %q", want, strs)
		}
	}
}

// protoStrings walks one protobuf message, checking every field's wire
// framing, and returns the length-delimited values of field num.
func protoStrings(b []byte, num uint64) ([]string, error) {
	var out []string
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad field key")
		}
		b = b[n:]
		switch key & 7 {
		case 0:
			if _, n = binary.Uvarint(b); n <= 0 {
				return nil, errors.New("bad varint")
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if key&7 == 5 {
				w = 4
			}
			if len(b) < w {
				return nil, errors.New("truncated fixed field")
			}
			b = b[w:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return nil, errors.New("bad length")
			}
			if key>>3 == num {
				out = append(out, string(b[n:n+int(l)]))
			}
			b = b[n+int(l):]
		default:
			return nil, errors.New("unknown wire type")
		}
	}
	return out, nil
}
