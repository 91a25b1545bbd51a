package server

// Fault tests of HTTPServer's connection loop, each over a real
// loopback connection: the request parser is net/http's own, so what
// these pin is the loop around it — the header deadline and cap, the
// body drain, the pipelining order, a panic's reach and Shutdown.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/durable"
)

// served is a handler serveLoop serves, at URL.
type served struct {
	*HTTPServer
	URL string
}

// ServeLoop is serveLoop, for this directory's external test package.
var ServeLoop = serveLoop

// serveLoop serves h through an HTTPServer on a loopback listener ln
// (a fresh one when nil) until the test ends. It is this package's one
// way to serve a handler: its cleanup checks that Serve returned
// http.ErrServerClosed and that every connection's goroutine ended.
func serveLoop(t *testing.T, h http.Handler, ln net.Listener) served {
	t.Helper()
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}
	hs := &HTTPServer{Handler: h}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	t.Cleanup(func() {
		hs.Close()
		if err := <-done; err != http.ErrServerClosed {
			t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
		}
		waitFor(t, func() bool { // every connection's goroutine has ended
			hs.mu.Lock()
			defer hs.mu.Unlock()
			return len(hs.conns) == 0
		})
	})
	return served{hs, "http://" + ln.Addr().String()}
}

// dial connects to the base URL of a served handler.
func dial(t *testing.T, base string) (net.Conn, *bufio.Reader) {
	t.Helper()
	c, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(20 * time.Second))
	return c, bufio.NewReader(c)
}

// readReply reads one reply to a request of the given method.
func readReply(t *testing.T, br *bufio.Reader, method string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.ReadResponse(br, &http.Request{Method: method})
	if err != nil {
		t.Fatalf("reading the reply: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading the reply's body: %v", err)
	}
	return resp, body
}

// dump is a reply as a test compares it: all but its Date.
func dump(resp *http.Response, body []byte) string {
	h := resp.Header.Clone()
	h.Del("Date")
	return fmt.Sprintf("%s %v te=%v close=%v\n%v\n%s", resp.Proto, resp.StatusCode, resp.TransferEncoding, resp.Close, h, body)
}

// expectClosed reports whether the peer closed c with nothing more to say.
func expectClosed(t *testing.T, br *bufio.Reader, within time.Duration) {
	t.Helper()
	start := time.Now()
	if b, err := br.ReadByte(); err == nil {
		rest, _ := br.Peek(br.Buffered())
		t.Fatalf("read %q, want the connection closed", append([]byte{b}, rest...))
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open after %v", time.Since(start))
	}
	if d := time.Since(start); d > within {
		t.Fatalf("closed after %v, want within %v", d, within)
	}
}

func addRequest(path, body string) string {
	return fmt.Sprintf("POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s", path, len(body), body)
}

func TestServeByteAtATime(t *testing.T) {
	srv := New()
	base := serveLoop(t, srv.Handler(), nil).URL
	c, br := dial(t, base)
	for _, tc := range []struct{ method, raw string }{
		{"POST", addRequest("/v1/sketch/cm", `{"type":"countmin","width":1024,"depth":4}`)},
		{"POST", addRequest("/v1/sketch/cm/add", "a\t3\nb\nc\t2\n")},
		{"GET", "GET /v1/sketch/cm/query?item=a HTTP/1.1\r\nHost: x\r\n\r\n"},
		{"HEAD", "HEAD /v1/types HTTP/1.1\r\nHost: x\r\n\r\n"},
	} {
		for i := 0; i < len(tc.raw); i++ {
			if _, err := c.Write([]byte{tc.raw[i]}); err != nil {
				t.Fatal(err)
			}
		}
		slow := dump(readReply(t, br, tc.method))
		// The create's twin is a 409, so it goes to a second name.
		raw := strings.Replace(tc.raw, "/cm ", "/dm ", 1)
		if _, err := c.Write([]byte(raw)); err != nil {
			t.Fatal(err)
		}
		fast := dump(readReply(t, br, tc.method))
		if tc.raw != raw {
			fast = strings.Replace(fast, `"dm"`, `"cm"`, 1)
		}
		if slow != fast {
			t.Errorf("%q one byte at a time:\n%s\nat once:\n%s", tc.raw[:20], slow, fast)
		}
	}
}

func TestServeHeaderStallIsClosed(t *testing.T) {
	old := headerTimeout
	t.Cleanup(func() { headerTimeout = old }) // after serveLoop's cleanup: its connections have ended
	headerTimeout = 200 * time.Millisecond
	srv := New()
	base := serveLoop(t, srv.Handler(), nil).URL

	// A connection's first request, stalled in its header. (Stalled
	// inside a line, the part read is parsed as a line, and the reply
	// before the close is a 400, as with http.Server.)
	c, br := dial(t, base)
	c.Write([]byte("GET /v1/types HTTP/1.1\r\nHost: x\r\n"))
	expectClosed(t, br, 5*time.Second)

	// A kept-alive connection: idle, it has no deadline; the header that
	// then starts does.
	c, br = dial(t, base)
	for i := 0; i < 2; i++ {
		c.Write([]byte("GET /v1/status HTTP/1.1\r\nHost: x\r\n\r\n"))
		if resp, _ := readReply(t, br, "GET"); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		time.Sleep(2 * headerTimeout)
	}
	c.Write([]byte("GET /v1/status HTTP/1.1\r\n"))
	expectClosed(t, br, 5*time.Second)
}

// A connection reset in the middle of a body applies nothing: neither
// the sketch's envelope nor the write-ahead log moves.
func TestServeResetMidBodyAppliesNothing(t *testing.T) {
	srv := New()
	if _, err := srv.EnableDurability(t.TempDir(), durable.Options{FsyncInterval: -1}); err != nil {
		t.Fatal(err)
	}
	defer srv.CloseDurability()
	hs := serveLoop(t, srv.Handler(), nil)
	base := hs.URL
	c, br := dial(t, base)
	c.Write([]byte(addRequest("/v1/sketch/h", `{"type":"hll","p":10}`)))
	readReply(t, br, "POST")
	c.Write([]byte(addRequest("/v1/sketch/h/add", "a\nb\nc\n")))
	readReply(t, br, "POST")
	snapshot := func() []byte {
		c.Write([]byte("GET /v1/sketch/h/snapshot HTTP/1.1\r\nHost: x\r\n\r\n"))
		_, env := readReply(t, br, "GET")
		return env
	}
	env, lsn := snapshot(), srv.DurabilityStatus().WALLSN

	rc, _ := dial(t, base)
	fmt.Fprintf(rc, "POST /v1/sketch/h/add HTTP/1.1\r\nHost: x\r\nContent-Length: 100000\r\n\r\n")
	rc.Write(bytes.Repeat([]byte("item\n"), 4000)) // 20 KB of 100
	time.Sleep(50 * time.Millisecond)
	rc.(*net.TCPConn).SetLinger(0)
	rc.Close() // a reset

	waitFor(t, func() bool {
		hs.mu.Lock()
		defer hs.mu.Unlock()
		return len(hs.conns) == 1 // the reset one is gone
	})
	if got := snapshot(); !bytes.Equal(got, env) {
		t.Error("the envelope changed")
	}
	if got := srv.DurabilityStatus().WALLSN; got != lsn {
		t.Errorf("WAL at lsn %d, was %d", got, lsn)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("timed out")
		}
	}
}

func TestServePipelinedRepliesInOrder(t *testing.T) {
	base := serveLoop(t, New().Handler(), nil).URL
	c, br := dial(t, base)
	create := addRequest("/v1/sketch/p", `{"type":"hll","p":10}`)
	c.Write([]byte(create + create + "GET /v1/sketch/p/query HTTP/1.1\r\nHost: x\r\n\r\n"))
	for i, want := range []int{http.StatusCreated, http.StatusConflict, http.StatusOK} {
		method := "POST"
		if i == 2 {
			method = "GET"
		}
		if resp, body := readReply(t, br, method); resp.StatusCode != want {
			t.Errorf("reply %d: %d %s, want %d", i, resp.StatusCode, body, want)
		}
	}
}

func TestServeOversizedHeaderIs431(t *testing.T) {
	base := serveLoop(t, New().Handler(), nil).URL
	c, br := dial(t, base)
	go func() {
		fmt.Fprintf(c, "GET /v1/types HTTP/1.1\r\nHost: x\r\nX-Big: %s\r\n\r\n", strings.Repeat("a", maxHeaderBytes+8192))
	}()
	resp, _ := readReply(t, br, "GET")
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge || !resp.Close {
		t.Errorf("status %d, close %v: want 431 and a close", resp.StatusCode, resp.Close)
	}
	expectClosed(t, br, 5*time.Second)
}

// countingListener counts the bytes the server reads from each
// connection it accepts.
type countingListener struct {
	net.Listener
	read atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{c.(*net.TCPConn), &l.read}, nil
}

type countingConn struct {
	*net.TCPConn
	read *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.TCPConn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

// A body past MaxBodyBytes gets its 413 and a close, applies nothing,
// and the loop reads no more than maxDrain of what the handler left.
func TestServeBodyPastMaxIs413(t *testing.T) {
	srv := New()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &countingListener{Listener: inner}
	base := serveLoop(t, srv.Handler(), ln).URL
	c, br := dial(t, base)
	c.Write([]byte(addRequest("/v1/sketch/h", `{"type":"hll","p":10}`)))
	readReply(t, br, "POST")
	before := ln.read.Load()

	const declared = 4 * MaxBodyBytes
	go func() {
		fmt.Fprintf(c, "POST /v1/sketch/h/add HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n", declared)
		line := bytes.Repeat([]byte("item\n"), 64<<10/5)
		for sent := 0; sent < declared; sent += len(line) {
			if _, err := c.Write(line); err != nil {
				return // the server closed
			}
		}
	}()
	resp, body := readReply(t, br, "POST")
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !resp.Close {
		t.Errorf("status %d %s, close %v: want 413 and a close", resp.StatusCode, body, resp.Close)
	}
	expectClosed(t, br, 5*time.Second)
	read := ln.read.Load() - before
	if limit := int64(MaxBodyBytes + maxDrain + 64<<10); read > limit {
		t.Errorf("the server read %d bytes of the request, want at most %d", read, limit)
	}
	if ops := srv.Ops().Snapshot(); ops.AddBatches != 0 || ops.Adds != 0 {
		t.Errorf("applied %d lines in %d batches", ops.Adds, ops.AddBatches)
	}
}

func TestServeHandlerPanicClosesOnlyItsConnection(t *testing.T) {
	defer log.SetOutput(log.Writer())
	log.SetOutput(io.Discard) // the recovered panic's stack
	mux := http.NewServeMux()
	mux.HandleFunc("/panic", func(http.ResponseWriter, *http.Request) { panic("boom") })
	mux.Handle("/", New().Handler())
	base := serveLoop(t, mux, nil).URL

	idle, idleBr := dial(t, base)
	idle.Write([]byte("GET /v1/status HTTP/1.1\r\nHost: x\r\n\r\n"))
	readReply(t, idleBr, "GET")

	c, br := dial(t, base)
	c.Write([]byte("GET /panic HTTP/1.1\r\nHost: x\r\n\r\n"))
	expectClosed(t, br, 5*time.Second)

	for _, cc := range []struct {
		c  net.Conn
		br *bufio.Reader
	}{{idle, idleBr}, {}} {
		if cc.c == nil {
			cc.c, cc.br = dial(t, base)
		}
		cc.c.Write([]byte("GET /v1/status HTTP/1.1\r\nHost: x\r\n\r\n"))
		if resp, _ := readReply(t, cc.br, "GET"); resp.StatusCode != http.StatusOK {
			t.Errorf("after the panic: %d", resp.StatusCode)
		}
	}
}

// Shutdown while two clients ingest into a durable node: it waits for
// the /adds in flight and lets each send its ack, answers none once it
// has returned, is not held up by an idle kept-alive connection, and
// every acknowledged batch is in the snapshot CloseDurability writes.
func TestServeShutdownDrainsInFlight(t *testing.T) {
	dir := t.TempDir()
	srv := New()
	if _, err := srv.EnableDurability(dir, durable.Options{FsyncInterval: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	var started, late atomic.Int64
	var returned atomic.Bool
	h := srv.Handler()
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/add") {
			h.ServeHTTP(w, r)
			return
		}
		started.Add(1)
		time.Sleep(20 * time.Millisecond) // keeps an /add in flight when Shutdown comes
		h.ServeHTTP(w, r)
		if returned.Load() {
			late.Add(1)
		}
	})
	hs := serveLoop(t, slow, nil)
	base := hs.URL
	c, br := dial(t, base)
	c.Write([]byte(addRequest("/v1/sketch/cm", `{"type":"countmin","width":65536,"depth":4}`)))
	readReply(t, br, "POST") // and c stays, idle

	var mu sync.Mutex
	var acked []int // batch numbers
	var wg sync.WaitGroup
	for client := 0; client < 2; client++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			c, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(20 * time.Second))
			br := bufio.NewReader(c)
			for batch := client; ; batch += 2 {
				if _, err := c.Write([]byte(addRequest("/v1/sketch/cm/add", batchLines(batch)))); err != nil {
					return
				}
				resp, err := http.ReadResponse(br, nil)
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("batch %d: status %d", batch, resp.StatusCode)
					return
				}
				mu.Lock()
				acked = append(acked, batch)
				mu.Unlock()
			}
		}(client)
	}
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(acked) >= 10 })

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := hs.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	returned.Store(true)
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("Shutdown took %v", d)
	}
	wg.Wait()
	if n := late.Load(); n > 0 {
		t.Errorf("%d /adds answered after Shutdown returned", n)
	}
	if n, m := started.Load(), int64(len(acked)); n != m {
		t.Errorf("%d /adds began, %d were acknowledged", n, m)
	}
	if err := srv.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	after := New()
	stats, err := after.EnableDurability(dir, durable.Options{FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer after.CloseDurability()
	if stats.RecordsReplayed != 0 {
		t.Errorf("recovery replayed %d WAL records, want all in the snapshot", stats.RecordsReplayed)
	}
	for _, batch := range acked {
		for _, item := range strings.Fields(batchLines(batch)) {
			rec := httptest.NewRecorder()
			after.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/sketch/cm/query?item="+item, nil))
			var got struct{ Estimate float64 }
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || got.Estimate < 1 {
				t.Fatalf("acknowledged batch %d: %s estimates %s", batch, item, rec.Body)
			}
		}
	}
}

// Serve on a server already closed returns at once and leaves nothing
// listening: a dial to its port is refused, as after http.Server's.
func TestServeAfterCloseClosesListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hs := &HTTPServer{Handler: New().Handler()}
	hs.Close()
	if err := hs.Serve(ln); err != http.ErrServerClosed {
		t.Fatalf("Serve after Close: %v, want http.ErrServerClosed", err)
	}
	if c, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		c.Close()
		t.Fatal("a dial after Serve returned was accepted: the listener is still open")
	}
}

func batchLines(batch int) string {
	var b strings.Builder
	for i := 0; i < 32; i++ {
		fmt.Fprintf(&b, "b%d-%d\n", batch, i)
	}
	return b.String()
}

// A shipped WAL segment goes out with its length, in one framed write,
// and byte for byte as it lies in the data directory.
func TestReplFileIsSized(t *testing.T) {
	dir := t.TempDir()
	srv := New()
	if _, err := srv.EnableDurability(dir, durable.Options{FsyncInterval: -1}); err != nil {
		t.Fatal(err)
	}
	defer srv.CloseDurability()
	base := serveLoop(t, srv.Handler(), nil).URL
	c, br := dial(t, base)
	for _, raw := range []string{
		addRequest("/v1/sketch/h", `{"type":"hll","p":10}`),
		addRequest("/v1/sketch/h/add", strings.Repeat("item\n", 1000)),
		addRequest("/v1/repl/seal", ""),
	} {
		c.Write([]byte(raw))
		if resp, body := readReply(t, br, "POST"); resp.StatusCode/100 != 2 {
			t.Fatalf("%d %s", resp.StatusCode, body)
		}
	}
	c.Write([]byte("GET /v1/repl/status HTTP/1.1\r\nHost: x\r\n\r\n"))
	_, body := readReply(t, br, "GET")
	var st durable.ShippableState
	if err := json.Unmarshal(body, &st); err != nil || len(st.Segments) == 0 {
		t.Fatalf("manifest %s: %v", body, err)
	}
	for _, seg := range st.Segments {
		c.Write([]byte("GET /v1/repl/file/" + seg.Name + " HTTP/1.1\r\nHost: x\r\n\r\n"))
		resp, got := readReply(t, br, "GET")
		want, err := os.ReadFile(filepath.Join(dir, seg.Name))
		if err != nil {
			t.Fatal(err)
		}
		if resp.ContentLength != int64(len(want)) || resp.TransferEncoding != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: length %d, coding %v, %d bytes; the file has %d", seg.Name, resp.ContentLength, resp.TransferEncoding, len(got), len(want))
		}
	}
}
