package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

// serveLoop serves h through server.Listen, as sketchd does, until the
// test ends, and returns its base URL.
func serveLoop(t *testing.T, h http.Handler) string {
	t.Helper()
	hs, base, err := server.Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hs.Close() })
	return base
}

// twin is one tier served twice, from two instances built alike: by
// http.Server, the reference the loop is held to, and by server.Listen.
type twin struct {
	ref, loop string
	shards    [2]string // each instance's shard, a coordinator's only
}

func newTwin(t *testing.T, coordinator bool) twin {
	var tw twin
	var bases [2]string
	for i := range bases {
		var h http.Handler = server.New().Handler()
		if coordinator {
			shard := serveLoop(t, server.New().Handler())
			coord, err := cluster.NewCoordinator([]string{shard}, cluster.Options{})
			if err != nil {
				t.Fatal(err)
			}
			h, tw.shards[i] = coord, strings.TrimPrefix(shard, "http://")
		}
		h = withPprof(h, true)
		if i == 0 {
			ref := httptest.NewServer(h)
			t.Cleanup(ref.Close)
			bases[i] = ref.URL
		} else {
			bases[i] = serveLoop(t, h)
		}
	}
	tw.ref, tw.loop = strings.TrimPrefix(bases[0], "http://"), strings.TrimPrefix(bases[1], "http://")
	return tw
}

// exchange writes raw on a fresh connection and reads the replies up
// to the first final one, each as dump renders it.
func exchange(t *testing.T, addr, raw, method string, wait time.Duration) ([]string, []byte) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(wait))
	if _, err := io.WriteString(c, raw); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(c)
	var replies []string
	for {
		resp, err := http.ReadResponse(br, &http.Request{Method: method})
		if err != nil {
			t.Fatalf("%s: reading a reply: %v", addr, err)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s: reading a reply's body: %v", addr, err)
		}
		h := resp.Header.Clone()
		date := h.Get("Date") != ""
		h.Del("Date")
		replies = append(replies, fmt.Sprintf("%s %d clen=%d te=%v close=%v date=%v\n%v",
			resp.Proto, resp.StatusCode, resp.ContentLength, resp.TransferEncoding, resp.Close, date, h))
		if resp.StatusCode >= 200 {
			return replies, body
		}
	}
}

// What differs between two instances answering the same requests:
// clocks and ages in a body (and so its length), and the entry number
// in an ETag, which counts the entries of the process.
var (
	volatile = regexp.MustCompile(`"(uptime_seconds|uptime_s|adds_per_sec|[a-z_]+_ms)":-?[0-9.eE+-]+`)
	length   = regexp.MustCompile(`clen=[0-9]+|Content-Length:\[[0-9]+\]`)
	entry    = regexp.MustCompile(`(Etag:\["[0-9a-f]+)-[0-9a-f]+-`)
)

func normalize(replies []string, body []byte, shard string) ([]string, []byte) {
	if shard != "" {
		body = bytes.ReplaceAll(body, []byte(shard), []byte("SHARD"))
	}
	if volatile.Match(body) {
		body = volatile.ReplaceAll(body, []byte(`"$1":0`))
		for i := range replies {
			replies[i] = length.ReplaceAllString(replies[i], "length")
		}
	}
	for i := range replies {
		replies[i] = entry.ReplaceAllString(replies[i], "$1-N-")
	}
	return replies, body
}

// Every case is served once through http.Server and once through the
// loop, and the two replies must agree in status, framing, body and
// every header but Date.
func TestServeMatchesHTTPServer(t *testing.T) {
	order := []string{"create", "add", "query", "snapshot", "merge", "list", "groupby", "overlap",
		"types", "status", "cluster-status", "repl-status", "repl-file", "repl-seal", "statsz", "delete"}
	for _, op := range server.Ops {
		if !slices.Contains(order, op.Name) {
			t.Fatalf("no case for operation %s", op.Name)
		}
	}
	for _, tier := range []string{"server", "coordinator"} {
		tw := newTwin(t, tier == "coordinator")
		var env []byte // the snapshot's bytes, merged back
		type tc struct{ name, method, raw string }
		// Every row under each tenant, the sketch's deletes apart: they
		// come last.
		opCases := func(deletes bool) []tc {
			var rows []tc
			for _, tenant := range []string{"", "acme"} {
				for _, name := range order {
					op := server.Named(name)
					if tenant != "" && !op.Tenant || deletes != (name == "delete") {
						continue
					}
					path, body := string(op.AppendPath(nil, tenant, "s")), ""
					switch name {
					case "create":
						body = `{"type":"countmin","width":1024,"depth":4,"seed":1}`
					case "add":
						body = "a\t2\nb\nc\t3\n"
					case "query":
						path += "?item=a"
					case "merge":
						body = "\x00merge" // stands for the snapshot taken just before
					case "list":
						path += "?limit=10"
					case "groupby":
						path += "?type=hll&p=8&prefix=g-"
						body = "x\tu1\ny\tu2\n"
					case "overlap":
						path += "?sketches=s,s"
					}
					raw := op.Method + " " + path + " HTTP/1.1\r\nHost: sketchd\r\n"
					if body != "" {
						raw += fmt.Sprintf("Content-Length: %d\r\n", len(body))
					}
					rows = append(rows, tc{tenant + "/" + name, op.Method, raw + "\r\n" + body})
				}
			}
			return rows
		}
		chunkBody := "d\t4\ne\n"
		pastDrain := fmt.Sprintf("Content-Length: %d\r\n\r\n%s", 300<<10, strings.Repeat("x", 300<<10)) // unread, over 256 KB
		cases := append(opCases(false),
			tc{"HEAD", "HEAD", "HEAD /v1/types HTTP/1.1\r\nHost: sketchd\r\n\r\n"},
			tc{"HEAD small", "HEAD", "HEAD /v1/sketch/s/query?item=a HTTP/1.1\r\nHost: sketchd\r\n\r\n"},
			tc{"HTTP/1.0", "GET", "GET /v1/sketch/s/query?item=a HTTP/1.0\r\n\r\n"},
			tc{"HTTP/1.0 keep-alive", "GET", "GET /v1/sketch/s/query?item=a HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"},
			tc{"HTTP/1.0 long", "GET", "GET /v1/types HTTP/1.0\r\n\r\n"},
			tc{"HTTP/1.0 keep-alive, body past the drain", "GET", "GET /v1/sketch/s/query?item=a HTTP/1.0\r\nConnection: keep-alive\r\n" + pastDrain},
			tc{"HTTP/1.0 keep-alive long, body past the drain", "GET", "GET /v1/types HTTP/1.0\r\nConnection: keep-alive\r\n" + pastDrain},
			// A client may hold a declared body back until it sees the
			// reply; past the drain, the reply must not wait for it.
			tc{"body declared past the drain, not sent", "GET", fmt.Sprintf("GET /v1/types HTTP/1.1\r\nHost: sketchd\r\nContent-Length: %d\r\n\r\n", 300<<10)},
			tc{"Connection: close", "GET", "GET /v1/types HTTP/1.1\r\nHost: sketchd\r\nConnection: close\r\n\r\n"},
			tc{"chunked request", "POST", "POST /v1/sketch/s/add HTTP/1.1\r\nHost: sketchd\r\nTransfer-Encoding: chunked\r\n\r\n" +
				fmt.Sprintf("%x\r\n%s\r\n0\r\n\r\n", len(chunkBody), chunkBody)},
			tc{"Expect: 100-continue", "POST", "POST /v1/sketch/s/add HTTP/1.1\r\nHost: sketchd\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\nf\n"},
			tc{"Expect: other", "POST", "POST /v1/sketch/s/add HTTP/1.1\r\nHost: sketchd\r\nExpect: later\r\nContent-Length: 2\r\n\r\nf\n"},
			tc{"missing Host", "GET", "GET /v1/types HTTP/1.1\r\n\r\n"},
			tc{"malformed request line", "GET", "GARBAGE\r\n\r\n"},
			tc{"unknown route", "GET", "GET /v2/nothing HTTP/1.1\r\nHost: sketchd\r\n\r\n"},
			tc{"wrong method", "GET", "GET /v1/sketch/s/add HTTP/1.1\r\nHost: sketchd\r\n\r\n"},
			tc{"pprof index", "GET", "GET /debug/pprof/ HTTP/1.1\r\nHost: sketchd\r\n\r\n"},
			tc{"pprof profile", "GET", "GET /debug/pprof/heap?debug=1 HTTP/1.1\r\nHost: sketchd\r\n\r\n"},
		)
		cases = append(cases, opCases(true)...)
		digits := regexp.MustCompile(`[0-9]+`)
		for _, c := range cases {
			raw := c.raw
			if strings.HasSuffix(raw, "\x00merge") {
				raw = strings.Replace(raw, "Content-Length: 6", fmt.Sprintf("Content-Length: %d", len(env)), 1)
				raw = strings.TrimSuffix(raw, "\x00merge") + string(env)
			}
			wait := 30 * time.Second
			if strings.HasSuffix(c.name, "not sent") {
				wait = 5 * time.Second // fails, not hangs, on a loop that waits for the body
			}
			refReplies, refBody := exchange(t, tw.ref, raw, c.method, wait)
			loopReplies, loopBody := exchange(t, tw.loop, raw, c.method, wait)
			if strings.HasSuffix(c.name, "/snapshot") {
				env = refBody
			}
			refReplies, refBody = normalize(refReplies, refBody, tw.shards[0])
			loopReplies, loopBody = normalize(loopReplies, loopBody, tw.shards[1])
			switch c.name {
			case "pprof index":
				refBody, loopBody = digits.ReplaceAll(refBody, nil), digits.ReplaceAll(loopBody, nil)
			case "pprof profile":
				// Two heaps differ; the framing and the format may not. The
				// text form carries the runtime's MemStats: always over 2 KB.
				for _, b := range [][]byte{refBody, loopBody} {
					if len(b) <= 2048 || !bytes.HasPrefix(b, []byte("heap profile: ")) {
						t.Errorf("%s %s: %d bytes, want a heap profile over 2 KB", tier, c.name, len(b))
					}
				}
				refBody, loopBody = nil, nil
			}
			if !slices.Equal(refReplies, loopReplies) || !bytes.Equal(refBody, loopBody) {
				t.Errorf("%s %s:\nhttp.Server:\n%s\n%.400q\nloop:\n%s\n%.400q", tier, c.name,
					strings.Join(refReplies, "\n"), refBody, strings.Join(loopReplies, "\n"), loopBody)
			}
		}
	}
}
