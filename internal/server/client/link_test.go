package client

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// peer is a test server under a count of the connections it accepted:
// how the tests see whether the client reused one.
type peer struct {
	url     string
	accepts atomic.Int32
}

// rawPeer serves every connection with serve, which gets the
// connection's number (from 1).
func rawPeer(t *testing.T, serve func(c net.Conn, nth int)) *peer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &peer{url: "http://" + ln.Addr().String()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			nth := int(p.accepts.Add(1))
			go func() {
				defer c.Close()
				serve(c, nth)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	return p
}

// readRequest consumes one request — header, then Content-Length bytes
// — and reports false when the client is gone.
func readRequest(br *bufio.Reader) bool {
	length := 0
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return false
		}
		if v, ok := strings.CutPrefix(line, "Content-Length: "); ok {
			length, _ = strconv.Atoi(strings.TrimSpace(v))
		}
		if line == "\r\n" {
			_, err := br.Discard(length)
			return err == nil
		}
	}
}

// cannedPeer answers every request of every connection with reply;
// hangUp makes it close the connection after each one, unannounced
// unless the reply says so itself.
func cannedPeer(t *testing.T, reply string, hangUp bool) *peer {
	return rawPeer(t, func(c net.Conn, _ int) {
		br := bufio.NewReader(c)
		for readRequest(br) {
			if _, err := io.WriteString(c, reply); err != nil || hangUp {
				return
			}
		}
	})
}

func handlerPeer(t *testing.T, h http.HandlerFunc) *peer {
	p := &peer{}
	ts := httptest.NewUnstartedServer(h)
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			p.accepts.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	p.url = ts.URL
	return p
}

// viaNetHTTP makes the same request with net/http and reads the outcome
// as this package did when it sat on an http.Client: the whole body of
// a 2xx, a *StatusError otherwise, built from the first 4 KiB and the
// Retry-After header.
func viaNetHTTP(t *testing.T, method, url string, body []byte) ([]byte, error) {
	t.Helper()
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatalf("net/http: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 == 2 {
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("net/http: %v", err)
		}
		return data, nil
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var after time.Duration
	if secs, err := strconv.ParseInt(resp.Header.Get("Retry-After"), 10, 64); err == nil && secs > 0 {
		after = time.Duration(secs) * time.Second
	}
	return nil, statusError(resp.StatusCode, after, data)
}

func TestRoundTripProtocol(t *testing.T) {
	big := strings.Repeat("0123456789abcdef", 1024) // 16 KiB: past net/http's 2 KB sniff buffer
	reply := func(head, body string) string { return head + "\r\n\r\n" + body }
	sized := func(status, extra, body string) string {
		return reply("HTTP/1.1 "+status+extra+"\r\nContent-Length: "+strconv.Itoa(len(body)), body)
	}
	for _, tc := range []struct {
		name    string
		reply   string           // canned, or
		handler http.HandlerFunc // a real net/http server
		hangUp  bool             // the canned server closes after its reply
		reused  bool             // a second call rides the first one's connection
		readErr error            // what a snapshot read makes of it, where that is not what a write does
	}{
		{name: "declared length", reply: sized("200 OK", "", "envelope"), reused: true},
		{name: "declared length, large", reply: sized("200 OK", "\r\nContent-Type: application/octet-stream", big), reused: true},
		{name: "empty body", reply: sized("200 OK", "", ""), reused: true},
		{name: "no reason phrase", reply: sized("200", "", "x"), reused: true},
		{name: "header case and padding", reply: reply("HTTP/1.1 200 OK\r\ncontent-LENGTH: \t3 ", "abc"), reused: true},
		{name: "chunked", reply: reply("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked", "3\r\nabc\r\nA\r\n0123456789\r\n0\r\n\r\n"), reused: true},
		{name: "chunked by a flushing handler", reused: true, handler: func(w http.ResponseWriter, _ *http.Request) {
			for i := 0; i < 4; i++ {
				io.WriteString(w, "part-"+strconv.Itoa(i)+";")
				w.(http.Flusher).Flush()
			}
		}},
		{name: "chunked past the sniff buffer", reused: true, handler: func(w http.ResponseWriter, _ *http.Request) {
			io.WriteString(w, big)
		}},
		{name: "204", reply: "HTTP/1.1 204 No Content\r\n\r\n", reused: true, readErr: &StatusError{Code: 204}},
		{name: "HTTP/1.0", reply: reply("HTTP/1.0 200 OK\r\nContent-Length: 5\r\nConnection: keep-alive", "hello")},
		{name: "HTTP/1.0 until close", reply: reply("HTTP/1.0 200 OK", "until the end"), hangUp: true},
		{name: "HTTP/1.1 until close", reply: reply("HTTP/1.1 200 OK", big), hangUp: true},
		{name: "Connection: close", reply: sized("200 OK", "\r\nConnection: close", "bye")},
		{name: "bytes past the declared length", reply: sized("200 OK", "", "body") + "stray"},
		{name: "429 JSON with Retry-After", reply: sized("429 Too Many Requests", "\r\nRetry-After: 7\r\nContent-Type: application/json", `{"error":"query budget exhausted"}`+"\n"), reused: true},
		{name: "404 JSON", reply: sized("404 Not Found", "", `{"error":"no sketch \"s\""}`), reused: true},
		{name: "503 text", reply: sized("503 Service Unavailable", "", "  shard is melting\n"), reused: true},
		{name: "503 text with Retry-After", reply: sized("503 Service Unavailable", "\r\nretry-after: 2", "busy"), reused: true},
		{name: "Retry-After as a date", reply: sized("503 Service Unavailable", "\r\nRetry-After: Fri, 31 Dec 1999 23:59:59 GMT", "busy"), reused: true},
		{name: "500 empty JSON error", reply: sized("500 Internal Server Error", "", `{"error":""}`), reused: true},
		{name: "500 from a handler", reused: true, handler: func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Retry-After", "3")
			http.Error(w, `{"error":"wal: disk full"}`, 500)
		}},
		{name: "400 chunked", reply: reply("HTTP/1.1 400 Bad Request\r\nTransfer-Encoding: chunked", "5\r\nbad w\r\n5\r\neight\r\n0\r\n\r\n"), reused: true},
		{name: "502 until close", reply: reply("HTTP/1.1 502 Bad Gateway", "upstream went away"), hangUp: true},
		{name: "error body over the cap", reply: sized("500 Internal Server Error", "", big)},
		{name: "chunked error body over the cap", reply: reply("HTTP/1.1 500 Internal Server Error\r\nTransfer-Encoding: chunked", "1000\r\n"+big[:4096]+"\r\n1000\r\n"+big[:4096]+"\r\n0\r\n\r\n")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var srv *peer
			if tc.handler != nil {
				srv = handlerPeer(t, tc.handler)
			} else {
				srv = cannedPeer(t, tc.reply, tc.hangUp)
			}
			cl := New(srv.url)
			batch := []byte("a\nb\n")

			wantBody, wantErr := viaNetHTTP(t, "GET", srv.url+"/v1/sketch/s/snapshot", nil)
			if _, postErr := viaNetHTTP(t, "POST", srv.url+"/v1/sketch/s/add", batch); !reflect.DeepEqual(wantErr, postErr) {
				t.Fatalf("net/http read the GET as %v and the POST as %v", wantErr, postErr)
			}
			readErr := wantErr
			if tc.readErr != nil {
				readErr = tc.readErr
			}
			srv.accepts.Store(0)

			// A read into the caller's buffer, twice, then a write whose
			// reply is dropped: all three see the same reply.
			var buf []byte
			for i := 0; i < 2; i++ {
				var err error
				buf, err = cl.SnapshotAppend("s", "", buf)
				if !reflect.DeepEqual(err, readErr) {
					t.Fatalf("read %d: error %#v, net/http path gave %#v", i, err, readErr)
				}
				if readErr == nil && !bytes.Equal(buf, wantBody) || readErr != nil && len(buf) != 0 {
					t.Fatalf("read %d: %d bytes %.40q, net/http read %d", i, len(buf), buf, len(wantBody))
				}
			}
			if got, want := srv.accepts.Load() == 1, tc.reused; got != want {
				t.Errorf("%d connections for two reads: reused %v, want %v", srv.accepts.Load(), got, want)
			}
			if err := cl.AddBatch("s", batch); !reflect.DeepEqual(err, wantErr) {
				t.Errorf("write: error %#v, net/http path gave %#v", err, wantErr)
			}
			var se *StatusError
			if errors.As(wantErr, &se) && len(se.Msg) > maxErrorBody {
				t.Errorf("StatusError quotes %d bytes, cap is %d", len(se.Msg), maxErrorBody)
			}
		})
	}
}

// What the parser refuses, each a reply net/http either refuses too or
// reads by rules this client does not carry.
func TestRoundTripRefuses(t *testing.T) {
	for name, reply := range map[string]string{
		"not HTTP":                    "SSH-2.0-OpenSSH\r\n\r\n",
		"HTTP/2 status line":          "HTTP/2 200 OK\r\n\r\n",
		"four-digit status":           "HTTP/1.1 2000 OK\r\nContent-Length: 0\r\n\r\n",
		"interim status":              "HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n",
		"bare LF":                     "HTTP/1.1 200 OK\nContent-Length: 0\n\n",
		"folded header":               "HTTP/1.1 200 OK\r\nX-A: b\r\n c\r\nContent-Length: 0\r\n\r\n",
		"space before colon":          "HTTP/1.1 200 OK\r\nContent-Length : 1\r\n\r\nx",
		"control byte in value":       "HTTP/1.1 200 OK\r\nX-A: b\x01\r\nContent-Length: 1\r\n\r\nx",
		"negative length":             "HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n",
		"signed length":               "HTTP/1.1 200 OK\r\nContent-Length: +1\r\n\r\nx",
		"empty length":                "HTTP/1.1 200 OK\r\nContent-Length:\r\n\r\n",
		"over-long length":            "HTTP/1.1 200 OK\r\nContent-Length: 99999999999999999999\r\n\r\n",
		"two lengths":                 "HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 1\r\n\r\nx",
		"length and chunked":          "HTTP/1.1 200 OK\r\nContent-Length: 1\r\nTransfer-Encoding: chunked\r\n\r\n1\r\nx\r\n0\r\n\r\n",
		"gzip coding":                 "HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip, chunked\r\n\r\n0\r\n\r\n",
		"chunked on HTTP/1.0":         "HTTP/1.0 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		"truncated body":              "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort",
		"truncated header":            "HTTP/1.1 200 OK\r\nContent-Len",
		"bad chunk size":              "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nxyz\r\n",
		"empty chunk size":            "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\r\n",
		"huge chunk size":             "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nffffffffffffffffff\r\n",
		"chunk extension":             "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1;x=y\r\na\r\n0\r\n\r\n",
		"chunk without CRLF":          "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1\r\nab\r\n0\r\n\r\n",
		"chunked, no last chunk":      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1\r\na\r\n",
		"trailer":                     "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\nX-T: v\r\n\r\n",
		"header line past the buffer": "HTTP/1.1 200 OK\r\nX-Pad: " + strings.Repeat("p", 5000) + "\r\nContent-Length: 0\r\n\r\n",
		"header past its cap":         "HTTP/1.1 200 OK\r\n" + strings.Repeat("X-Pad: "+strings.Repeat("p", 1000)+"\r\n", 70) + "\r\n",
	} {
		srv := cannedPeer(t, reply, true)
		got, err := New(srv.url).Snapshot("s")
		var se *StatusError
		if err == nil || errors.As(err, &se) || len(got) != 0 {
			t.Errorf("%s: read as %d bytes, error %v; want a transport error", name, len(got), err)
		}
		if err := New(srv.url).AddBatch("s", []byte("a")); err == nil || errors.As(err, &se) {
			t.Errorf("%s: a write took it for an answer (%v)", name, err)
		}
	}
}

// The server hangs up after each reply without saying so, so every
// pooled connection is dead by the time it is reused: a GET is sent
// again on a fresh one, a POST whose bytes went out is not — it may
// have been applied — and a POST of which nothing went out is.
func TestRedialRule(t *testing.T) {
	var posts atomic.Int32
	srv := rawPeer(t, func(c net.Conn, _ int) {
		br := bufio.NewReader(c)
		if line, _ := br.Peek(4); string(line) == "POST" {
			posts.Add(1)
		}
		if readRequest(br) {
			io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
		}
	})
	cl := New(srv.url)
	for i := 1; i <= 3; i++ {
		if got, err := cl.Snapshot("s"); err != nil || string(got) != "ok" {
			t.Fatalf("GET %d: %q, %v", i, got, err)
		}
	}
	// The first GET dialled; the other two each found the pooled
	// connection dead and dialled again.
	if n := srv.accepts.Load(); n != 3 {
		t.Errorf("3 GETs over a server that hangs up: %d connections, want 3", n)
	}

	err := cl.AddBatch("s", []byte("a\nb\n"))
	var se *StatusError
	if err == nil || errors.As(err, &se) {
		t.Fatalf("POST on a connection the server closed: %v, want the transport error", err)
	}
	if !strings.Contains(err.Error(), "POST "+srv.url+"/v1/sketch/s/add") {
		t.Errorf("error does not name the request: %v", err)
	}
	if n := srv.accepts.Load(); n != 3 {
		t.Errorf("a written POST was sent again: %d connections, want 3", n)
	}
	if err := cl.AddBatch("s", []byte("a\nb\n")); err != nil {
		t.Fatalf("POST after the failure emptied the pool: %v", err)
	}
	if n, p := srv.accepts.Load(), posts.Load(); n != 4 || p != 1 {
		t.Errorf("%d connections and %d POSTs seen, want 4 and 1", n, p)
	}

	// Nothing written: the pooled connection refuses the first byte.
	cl.link.closeIdle()
	cl.link.put(&conn{nc: unwritable{}, br: bufio.NewReader(strings.NewReader(""))})
	if err := cl.AddBatch("s", []byte("a\nb\n")); err != nil {
		t.Fatalf("POST of which nothing was written: %v, want it sent on a fresh connection", err)
	}
	if n, p := srv.accepts.Load(), posts.Load(); n != 5 || p != 2 {
		t.Errorf("%d connections and %d POSTs seen, want 5 and 2", n, p)
	}
}

// A server that answers before it has read the request to the end, and
// hangs up on the rest, is heard: the caller gets its 413, not the
// broken pipe the write ended in.
func TestRefusalBeatsWriteError(t *testing.T) {
	srv := handlerPeer(t, func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.Copy(io.Discard, http.MaxBytesReader(w, r.Body, 1<<10)); err != nil {
			http.Error(w, `{"error":"body over 1024 bytes"}`, http.StatusRequestEntityTooLarge)
		}
	})
	cl := New(srv.url)
	err := cl.AddBatch("s", make([]byte, 32<<20)) // far more than the socket buffers hold
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 413 || se.Msg != "body over 1024 bytes" {
		t.Fatalf("oversized batch: %v, want the server's 413", err)
	}
	if err := cl.AddBatch("s", []byte("a")); err != nil {
		t.Fatalf("the next call: %v", err)
	}
	if n := srv.accepts.Load(); n != 2 {
		t.Errorf("%d connections, want 2: the refused one is not reused", n)
	}
}

// unwritable is a connection that was reset while it sat in the pool.
type unwritable struct{ net.Conn }

func (unwritable) Write([]byte) (int, error)        { return 0, io.ErrClosedPipe }
func (unwritable) SetDeadline(time.Time) error      { return nil }
func (unwritable) SetReadDeadline(time.Time) error  { return nil }
func (unwritable) SetWriteDeadline(time.Time) error { return nil }
func (unwritable) Close() error                     { return nil }

// A server that accepts and never answers costs the first-byte limit,
// not the exchange limit, and is not tried again.
func TestFirstByteLimit(t *testing.T) {
	defer func(d time.Duration) { firstByteTimeout = d }(firstByteTimeout)
	firstByteTimeout = 50 * time.Millisecond
	hold := make(chan struct{})
	srv := rawPeer(t, func(c net.Conn, _ int) { <-hold })
	defer close(hold)

	start := time.Now()
	_, err := New(srv.url).Snapshot("s")
	if took := time.Since(start); !errors.Is(err, os.ErrDeadlineExceeded) || took < firstByteTimeout || took > 5*time.Second {
		t.Fatalf("silent server: %v after %v, want a deadline error at %v", err, took, firstByteTimeout)
	}
	if n := srv.accepts.Load(); n != 1 {
		t.Errorf("%d connections, want 1: a timeout is not retried", n)
	}
}

func TestBaseURL(t *testing.T) {
	for _, base := range []string{"https://127.0.0.1:1", "127.0.0.1:1", "", "http://", "http://a b:1"} {
		_, err := New(base).Status()
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(base)) {
			t.Errorf("New(%q): first call gave %v, want an error naming the base", base, err)
		}
	}
	// A base with a path keeps it in front of every route, and a
	// trailing slash is not doubled.
	var got string
	srv := handlerPeer(t, func(w http.ResponseWriter, r *http.Request) { got = r.Host + r.URL.Path })
	if err := New(srv.url + "/proxy/").Tenant("acme").Delete("a b"); err != nil {
		t.Fatal(err)
	}
	if want := strings.TrimPrefix(srv.url, "http://") + "/proxy/v1/t/acme/sketch/a b"; got != want {
		t.Errorf("request went to %q, want %q", got, want)
	}
}

func TestAppendQueryEscape(t *testing.T) {
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	for _, s := range []string{"", "item=flow17", "a b&c=d/e?f", "héllo", string(all)} {
		if got, want := string(appendQueryEscape(nil, s)), url.QueryEscape(s); got != want {
			t.Errorf("appendQueryEscape(%q) = %q, want %q", s, got, want)
		}
	}
}

// In steady state the hop allocates nothing: the request is written
// from, and the reply read into, buffers the connection and the caller
// already hold. The server here answers from a fixed buffer so that the
// count is the client's alone.
func TestRoundTripZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	envelope := bytes.Repeat([]byte("e"), 16<<10)
	reply := append([]byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", len(envelope))), envelope...)
	srv := rawPeer(t, func(c net.Conn, _ int) {
		buf := make([]byte, 64<<10)
		headEnd, lengthKey := []byte("\r\n\r\n"), []byte("Content-Length: ")
		for n := 0; ; {
			m, err := c.Read(buf[n:])
			if err != nil {
				return
			}
			n += m
			end := bytes.Index(buf[:n], headEnd)
			if end < 0 {
				continue
			}
			length := 0
			if i := bytes.Index(buf[:end], lengthKey); i >= 0 {
				for _, d := range buf[i+len(lengthKey) : end] {
					if d < '0' || d > '9' {
						break
					}
					length = length*10 + int(d-'0')
				}
			}
			if n < end+4+length {
				continue
			}
			n = 0
			if _, err := c.Write(reply); err != nil {
				return
			}
		}
	})
	cl := New(srv.url)
	batch := bytes.Repeat([]byte("flow-1234\t3\n"), 1024)
	buf, err := cl.SnapshotFor("cm", "slim", "item=flow 17", nil)
	if err != nil || !bytes.Equal(buf, envelope) {
		t.Fatalf("warm-up read: %d bytes, %v", len(buf), err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := cl.AddBatch("cm", batch); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AddBatch: %v allocs per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if buf, err = cl.SnapshotFor("cm", "slim", "item=flow 17", buf); err != nil || len(buf) != len(envelope) {
			t.Fatalf("read: %d bytes, %v", len(buf), err)
		}
	}); n != 0 {
		t.Errorf("SnapshotFor into a warm buffer: %v allocs per call, want 0", n)
	}
	if n := srv.accepts.Load(); n != 1 {
		t.Errorf("%d connections, want the one", n)
	}
}

// Refresh is a conditional GET: the tag the caller holds goes out as
// If-None-Match, a 304 leaves the envelope and the tag as they were, a
// 200 replaces both (the tag with nothing when the reply names none),
// and an error empties both. A 304 to a GET that named no tag is an
// error, as any other status but 200. In steady state a 304 allocates
// nothing; the server here allocates nothing either, so that the count
// is the client's.
func TestRefresh(t *testing.T) {
	tags := []string{"", `"v1"`, `"v2"`} // what a request may name, by index
	var state atomic.Pointer[[]byte]     // the reply to a request that names no tag the reply has
	set := func(reply string) { b := []byte(reply); state.Store(&b) }
	notModified := []byte("HTTP/1.1 304 Not Modified\r\n\r\n")
	set("HTTP/1.1 200 OK\r\nETag: \"v1\"\r\nContent-Length: 4\r\n\r\nenv1")
	var sent atomic.Int32 // index in tags of the last request's If-None-Match; -1 for another
	srv := rawPeer(t, func(c net.Conn, _ int) {
		buf := make([]byte, 4096)
		for n := 0; ; {
			m, err := c.Read(buf[n:])
			if err != nil {
				return
			}
			n += m
			end := bytes.Index(buf[:n], []byte("\r\n\r\n"))
			if end < 0 {
				continue
			}
			inm := []byte(nil)
			if i := bytes.Index(buf[:end+2], []byte("If-None-Match: ")); i >= 0 {
				inm = buf[i+len("If-None-Match: ") : end+2]
				inm = inm[:bytes.IndexByte(inm, '\r')]
			}
			sent.Store(-1)
			for i, tag := range tags {
				if string(inm) == tag {
					sent.Store(int32(i))
				}
			}
			reply := *state.Load()
			if i := bytes.Index(reply, []byte("ETag: ")) + len("ETag: "); len(inm) > 0 && i >= len("ETag: ") &&
				bytes.HasPrefix(reply[i:], inm) && reply[i+len(inm)] == '\r' {
				reply = notModified
			}
			n = 0
			if _, err := c.Write(reply); err != nil {
				return
			}
		}
	})
	cl := New(srv.url)
	var cached Cached
	refresh := func(wantChanged bool, wantSent int32, wantEnv, wantTag string) {
		t.Helper()
		changed, err := cl.Refresh("s", "", &cached)
		if err != nil || changed != wantChanged {
			t.Fatalf("Refresh: changed %v, %v; want %v", changed, err, wantChanged)
		}
		if got := sent.Load(); got != wantSent {
			t.Errorf("If-None-Match was tag %d, want %d (%q)", got, wantSent, tags[wantSent])
		}
		if string(cached.Env) != wantEnv || string(cached.Tag) != wantTag {
			t.Errorf("cached %q under %q, want %q under %q", cached.Env, cached.Tag, wantEnv, wantTag)
		}
	}
	refresh(true, 0, "env1", `"v1"`)
	refresh(false, 1, "env1", `"v1"`)
	set("HTTP/1.1 200 OK\r\nETag: \"v2\"\r\nContent-Length: 4\r\n\r\nenv2")
	refresh(true, 1, "env2", `"v2"`)
	refresh(false, 2, "env2", `"v2"`)
	if n := srv.accepts.Load(); n != 1 {
		t.Errorf("%d connections, want the one: a 304 leaves it reusable", n)
	}
	if !raceEnabled {
		if n := testing.AllocsPerRun(100, func() { cl.Refresh("s", "", &cached) }); n != 0 {
			t.Errorf("Refresh answered 304: %v allocs per call, want 0", n)
		}
	}
	set("HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nenv3")
	refresh(true, 2, "env3", "")
	refresh(true, 0, "env3", "")

	set("HTTP/1.1 200 OK\r\nETag: \"v2\"\r\nContent-Length: 4\r\n\r\nenv2")
	refresh(true, 0, "env2", `"v2"`)
	set("HTTP/1.1 503 Service Unavailable\r\nContent-Length: 4\r\n\r\ndown")
	var se *StatusError
	if _, err := cl.Refresh("s", "", &cached); !errors.As(err, &se) || se.Code != 503 || len(cached.Env) != 0 || len(cached.Tag) != 0 {
		t.Errorf("Refresh of a 503: %v, cached %q under %q; want the 503 and nothing cached", err, cached.Env, cached.Tag)
	}

	set("HTTP/1.1 304 Not Modified\r\n\r\n")
	if _, err := cl.SnapshotAppend("s", "", nil); !errors.As(err, &se) || se.Code != 304 {
		t.Errorf("a 304 to an unconditional GET: %v, want a StatusError 304", err)
	}
}
