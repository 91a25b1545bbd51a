package client_test

import (
	"encoding/json"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/server/client"
)

// A shard that accepts connections and never answers costs a gather the
// first-byte limit, and the coordinator reports it as it does a shard
// that is down: 503, the shard named. (The test lives here, not in
// cluster, to reach the limit; cluster imports this package.)
func TestSilentShardIsA503NamingIt(t *testing.T) {
	defer client.SetFirstByteTimeout(50 * time.Millisecond)()
	hs, live, err := server.Listen("127.0.0.1:0", server.New().Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Close()
	if err := client.New(live).Create("u", server.CreateRequest{Type: "hll"}); err != nil {
		t.Fatal(err)
	}
	silent, err := net.Listen("tcp", "127.0.0.1:0") // the kernel accepts; nobody reads
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	silentURL := "http://" + silent.Addr().String()

	coord, err := cluster.NewCoordinator([]string{live, silentURL}, cluster.Options{Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rec := httptest.NewRecorder()
	coord.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/sketch/u/query", nil))
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("the gather took %v: the silent shard was waited on past the first-byte limit", took)
	}
	var doc struct {
		Error  string               `json:"error"`
		Failed []cluster.ShardError `json:"failed_shards"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("reply %q: %v", rec.Body, err)
	}
	if rec.Code != 503 || !strings.Contains(doc.Error, silentURL) || len(doc.Failed) != 1 ||
		doc.Failed[0].Shard != silentURL || !strings.Contains(doc.Failed[0].Err, "timeout") {
		t.Errorf("HTTP %d %s, want a 503 naming %s and its timeout", rec.Code, rec.Body, silentURL)
	}
}
