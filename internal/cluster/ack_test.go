package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/internal/server/client"
)

// The /add ack: what both tiers write is byte for byte what
// server.WriteJSON writes for {"added": n}, and the client's read of it
// (AddBatchCounted) agrees with encoding/json on that ack, on acks that
// JSON spells otherwise, and on refusals.
func TestAddAck(t *testing.T) {
	writeJSON := func(n int) []byte {
		rec := httptest.NewRecorder()
		server.WriteJSON(rec, http.StatusOK, map[string]any{"added": n})
		return rec.Body.Bytes()
	}
	writeAdded := func(n int) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		server.WriteAdded(rec, n)
		return rec
	}
	for _, n := range []int{0, 1, 9, 10, 1024, 1<<31 - 1, 1 << 40} {
		if rec, want := writeAdded(n), writeJSON(n); !bytes.Equal(rec.Body.Bytes(), want) || rec.Code != http.StatusOK {
			t.Errorf("WriteAdded(%d): %d %q, WriteJSON writes 200 %q", n, rec.Code, rec.Body.Bytes(), want)
		}
	}

	f := newFleet(t, 1)
	_, front := newFleet(t, 4).coordinator()
	for tier, base := range map[string]string{"node": f.nodes[0].URL, "coordinator": front} {
		if err := client.New(base).Create("s", server.CreateRequest{Type: "hll", P: 10}); err != nil {
			t.Fatal(err)
		}
		for _, lines := range []int{1, 3, 1024} {
			resp, err := http.Post(base+"/v1/sketch/s/add", "text/plain", strings.NewReader(strings.Repeat("x\r\n\n", lines)))
			if err != nil {
				t.Fatal(err)
			}
			got, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if want := writeJSON(lines); !bytes.Equal(got, want) || resp.Header.Get("Content-Type") != "application/json" {
				t.Errorf("%s: /add of %d lines answers %q (%s), WriteJSON writes %q (application/json)",
					tier, lines, got, resp.Header.Get("Content-Type"), want)
			}
		}
	}

	for _, tc := range []struct {
		status int
		body   string
	}{
		{200, writeAdded(1024).Body.String()},
		{200, `{"added":0}`},
		{200, `{"added": 12}`},
		{200, "{ \"added\" : 12 }\n"},
		{200, "{\"added\":12,\"tenant\":\"acme\"}\n"},
		{200, `{"tenant":"acme","added":12}`},
		{200, `{"added":012}`},
		{200, `{"added":-3}`},
		{200, `{"added":"12"}`},
		{200, `{"added":99999999999999999999}`},
		{200, `{"added":12}x`},
		{200, ""},
		{400, "{\"error\":\"line 2: bad weight\"}\n"},
		{503, "shard down"},
	} {
		cl := client.New(f.serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.WriteHeader(tc.status)
			io.WriteString(w, tc.body)
		})))
		got, err := cl.AddBatchCounted("s", []byte("x\n"))
		var want int
		var wantErr error
		if tc.status == http.StatusOK {
			var doc struct {
				Added int `json:"added"`
			}
			wantErr = json.Unmarshal([]byte(tc.body), &doc)
			want = doc.Added
		} else {
			wantErr = cl.Forward("add", "s", "text/plain", []byte("x\n"))
		}
		switch {
		case got != want || (err == nil) != (wantErr == nil):
			t.Errorf("%d %q: AddBatchCounted read %d, %v; encoding/json %d, %v", tc.status, tc.body, got, err, want, wantErr)
		case tc.status != http.StatusOK && err.Error() != wantErr.Error():
			t.Errorf("%d %q: AddBatchCounted says %q, Forward %q", tc.status, tc.body, err, wantErr)
		}
	}
}
