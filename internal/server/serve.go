package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"net/textproto"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The limits every connection runs under, each http.Server's own.
const (
	maxHeaderBytes = http.DefaultMaxHeaderBytes // request line and header; past it, 431 and a close
	maxDrain       = 256 << 10                  // unread request body read off before a connection is reused
	holdBytes      = 2048                       // reply bytes held back for a Content-Length; a longer reply is chunked
	rstAvoidance   = 500 * time.Millisecond     // a connection closed on unread request bytes stays half-open this long
)

// headerTimeout bounds the wait for a request's line and header, from
// its first byte (from the accept, for a connection's first request).
// A variable only so that tests can shorten it.
var headerTimeout = 10 * time.Second

// HTTPServer serves an http.Handler over HTTP/1.1 as http.Server does,
// without its per-request machinery: each
// connection's goroutine reads a request with http.ReadRequest from
// the connection's own bufio.Reader, calls the handler, and writes the
// reply itself. No goroutine reads in the background, no context is
// made per request, and a request sets one read deadline and clears it.
// The request's Context is context.Background and its RemoteAddr is
// empty: no handler reads either.
//
// Its methods mirror http.Server's. Set Handler before Serve.
type HTTPServer struct {
	Handler http.Handler

	closing atomic.Bool // Shutdown or Close has begun

	mu        sync.Mutex
	listeners map[*net.Listener]struct{}
	conns     map[*conn]struct{}
}

// Listen listens on addr and serves h there through a new HTTPServer
// on a goroutine of its own, as sketchd serves; it returns the server
// and its base URL. Close or Shutdown stops it.
func Listen(addr string, h http.Handler) (*HTTPServer, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	s := &HTTPServer{Handler: h}
	go func() {
		if err := s.Serve(ln); err != http.ErrServerClosed {
			log.Printf("sketchd: serving %s: %v", ln.Addr(), err)
		}
	}()
	return s, "http://" + ln.Addr().String(), nil
}

// Serve accepts connections on ln and serves each on a goroutine of its
// own, until Shutdown or Close, when it returns http.ErrServerClosed.
// ln is closed when it returns, as http.Server's Serve leaves it.
func (s *HTTPServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closing.Load() {
		s.mu.Unlock()
		ln.Close()
		return http.ErrServerClosed
	}
	if s.listeners == nil {
		s.listeners = map[*net.Listener]struct{}{}
		s.conns = map[*conn]struct{}{}
	}
	s.listeners[&ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, &ln)
		s.mu.Unlock()
	}()

	var backoff time.Duration
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.closing.Load() {
				return http.ErrServerClosed
			}
			if errors.Is(err, net.ErrClosed) {
				return err
			}
			// Out of file descriptors, say: wait for some to close.
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			log.Printf("sketchd: accept: %v; retrying in %v", err, backoff)
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		c := &conn{s: s, nc: nc}
		s.mu.Lock()
		if s.closing.Load() {
			s.mu.Unlock()
			nc.Close()
			return http.ErrServerClosed
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		go c.serve()
	}
}

// Shutdown stops accepting, closes every idle connection and waits
// until no handler runs and no reply is being written, or until ctx
// is done. A reply written from then on says Connection: close.
func (s *HTTPServer) Shutdown(ctx context.Context) error {
	err := s.stop()
	for wait := time.Millisecond; ; wait = min(2*wait, 500*time.Millisecond) {
		if s.closeIdle() {
			return err
		}
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}

// Close stops accepting and closes every connection at once, in
// flight or not.
func (s *HTTPServer) Close() error {
	err := s.stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		c.state.Store(stateClosed)
		c.nc.Close()
	}
	return err
}

// stop marks the server closing and closes its listeners.
func (s *HTTPServer) stop() error {
	s.closing.Store(true)
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	for ln := range s.listeners {
		if cerr := (*ln).Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// closeIdle closes the idle connections and reports whether every
// connection is closed.
func (s *HTTPServer) closeIdle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	quiet := true
	for c := range s.conns {
		if c.state.CompareAndSwap(stateIdle, stateClosed) {
			c.nc.Close()
		} else if c.state.Load() != stateClosed {
			quiet = false
		}
	}
	return quiet
}

// A connection is idle while it waits for a request, active from the
// moment one is parsed until its reply is written, and closed once
// Shutdown or Close has closed it; an idle connection closed under a
// request it just parsed drops that request unanswered.
const (
	stateIdle int32 = iota
	stateActive
	stateClosed
)

// conn is one connection and the buffers that stay with it.
type conn struct {
	s     *HTTPServer
	nc    net.Conn
	state atomic.Int32
	r     connReader
	br    *bufio.Reader
	bw    *bufio.Writer
	w     response
	hosts [1]string  // backing of hostValues' common answer
	date  [32]byte   // backing of the Date header, the status code and a chunk's size
	num   [20]byte   // backing of an added Content-Length
	spare [4096]byte // where drained request bytes land

	bodyAt int64 // where the body began, in bodyRead's count
}

func (c *conn) serve() {
	defer func() {
		if p := recover(); p != nil && p != http.ErrAbortHandler {
			buf := make([]byte, 64<<10)
			buf = buf[:runtime.Stack(buf, false)]
			log.Printf("sketchd: panic serving %v: %v\n%s", c.nc.RemoteAddr(), p, buf)
		}
		c.nc.Close()
		c.s.mu.Lock()
		delete(c.s.conns, c)
		c.s.mu.Unlock()
	}()
	c.r.nc = c.nc
	c.br = bufio.NewReaderSize(&c.r, 4<<10)
	c.bw = bufio.NewWriterSize(c.nc, 4<<10)
	c.w = response{c: c, header: http.Header{}, held: make([]byte, 0, holdBytes)}
	afterPost := false
	for first := true; ; first = false {
		// Idle until the next request's first bytes, with no deadline, as
		// http.Server does with no IdleTimeout.
		if !first {
			if _, err := c.br.Peek(4); err != nil {
				return
			}
		}
		req, err := c.readRequest(afterPost)
		if !c.state.CompareAndSwap(stateIdle, stateActive) {
			return
		}
		if err != nil {
			c.refuse(err)
			return
		}
		afterPost = req.Method == "POST"
		if !c.w.serve(req) {
			if c.w.unread {
				c.closeWriteAndWait()
			}
			return
		}
		c.state.Store(stateIdle)
		if c.s.closing.Load() {
			return
		}
	}
}

var errTooLarge = errors.New("request header too large")

// statusError is a refusal made after parsing, with the text
// http.Server gives it.
type statusError struct {
	code int
	text string
}

func (e statusError) Error() string { return strconv.Itoa(e.code) + " " + e.text }

// readRequest reads the next request under the header deadline and
// cap, and makes the checks http.Server makes of a parsed request.
func (c *conn) readRequest(afterPost bool) (*http.Request, error) {
	c.nc.SetReadDeadline(time.Now().Add(headerTimeout))
	c.r.limit = maxHeaderBytes + 4096 // http.Server's allowance for bufio's read-ahead
	if afterPost {
		// RFC 7230 section 3 tolerance for a client that ends a POST body
		// with a stray CRLF.
		peek, _ := c.br.Peek(4)
		c.br.Discard(leadingCRLF(peek))
	}
	buffered, _ := c.br.Peek(c.br.Buffered())
	c.r.rec = append(c.r.rec[:0], buffered...)
	c.r.recording = true
	req, err := http.ReadRequest(c.br)
	c.r.recording = false
	if err != nil {
		if c.r.limit <= 0 {
			return nil, errTooLarge
		}
		return nil, err
	}
	h2 := req.ProtoMajor == 2 && req.ProtoMinor == 0 && req.Method == "PRI" && req.RequestURI == "*"
	if req.ProtoMajor != 1 && !h2 {
		return nil, statusError{http.StatusHTTPVersionNotSupported, "unsupported protocol version"}
	}
	c.r.limit = math.MaxInt64
	c.bodyAt = -int64(c.br.Buffered())
	hosts := c.hostValues(req)
	h2 = h2 && len(req.Header) == 0 && len(hosts) == 0 && req.URL.Path == "*"
	if req.ProtoAtLeast(1, 1) && len(hosts) == 0 && !h2 && req.Method != "CONNECT" {
		return nil, statusError{http.StatusBadRequest, "missing required Host header"}
	}
	if len(hosts) == 1 && !validHost(hosts[0]) {
		return nil, statusError{http.StatusBadRequest, "malformed Host header"}
	}
	for k, vv := range req.Header {
		if !validFieldName(k) {
			return nil, statusError{http.StatusBadRequest, "invalid header name"}
		}
		for _, v := range vv {
			if !validFieldValue(v) {
				return nil, statusError{http.StatusBadRequest, "invalid header value"}
			}
		}
	}
	c.nc.SetReadDeadline(time.Time{})
	if cap(c.r.rec) > 64<<10 {
		c.r.rec = nil // a long header's copy is not kept for the next request
	}
	return req, nil
}

// hostValues returns the request's Host header values, which
// http.ReadRequest has taken out of req.Header: req.Host is the only
// one unless the request line names a host or req.Host is empty, and
// then the header is read again from its recorded bytes.
func (c *conn) hostValues(req *http.Request) []string {
	if req.URL.Host == "" && req.Host != "" {
		c.hosts[0] = req.Host
		return c.hosts[:]
	}
	raw := c.r.rec[:len(c.r.rec)-c.br.Buffered()]
	tp := textproto.NewReader(bufio.NewReader(bytes.NewReader(raw)))
	tp.ReadLine()
	h, _ := tp.ReadMIMEHeader() // the same bytes parsed once already
	return h["Host"]
}

// refuse answers a request that could not be read, as http.Server
// does, and the connection then closes.
func (c *conn) refuse(err error) {
	const errorHeaders = "\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n"
	var se statusError
	switch ne, _ := err.(net.Error); {
	case err == errTooLarge:
		const text = "431 Request Header Fields Too Large"
		c.bw.WriteString("HTTP/1.1 " + text + errorHeaders + text)
		c.closeWriteAndWait()
		return
	case fmt.Sprintf("%T", err) == "*http.unsupportedTEError":
		// The transfer coding is not echoed back.
		c.bw.WriteString("HTTP/1.1 501 Not Implemented" + errorHeaders + "Unsupported transfer encoding")
	case err == io.EOF, ne != nil && ne.Timeout(), isReadOp(err):
		return // the client went away or stalled: nobody to answer
	case errors.As(err, &se):
		text := fmt.Sprintf("%d %s: %s", se.code, http.StatusText(se.code), se.text)
		c.bw.WriteString("HTTP/1.1 " + text + errorHeaders + text)
	default:
		const text = "400 Bad Request"
		c.bw.WriteString("HTTP/1.1 " + text + errorHeaders + text)
	}
	c.bw.Flush()
}

// closeWriteAndWait sends what is buffered and a FIN, and gives the
// client time to read the reply before the close: closing over unread
// request bytes sends a reset, which can destroy a reply in flight.
func (c *conn) closeWriteAndWait() {
	c.bw.Flush()
	if tc, ok := c.nc.(interface{ CloseWrite() error }); ok {
		tc.CloseWrite()
	}
	time.Sleep(rstAvoidance)
}

// bodyRead is the count of request body bytes the handler has taken:
// what came off the connection since the header, less what the reader
// still buffers.
func (c *conn) bodyRead() int64 {
	return math.MaxInt64 - c.r.limit - int64(c.br.Buffered()) - c.bodyAt
}

// drain reads off what the handler left of a request body, up to
// maxDrain bytes, and reports whether the body ended within them. A
// body that cannot be read to its end — cut short, or closed, which a
// bad chunked trailer does to it — leaves the connection unusable.
func (c *conn) drain(body io.Reader) bool {
	for n := 0; ; {
		m, err := body.Read(c.spare[:min(len(c.spare), maxDrain+1-n)])
		n += m
		switch {
		case n > maxDrain:
			return false
		case err == io.EOF:
			return true
		case err != nil:
			return false
		}
	}
}

// connReader is what a connection's bufio.Reader reads from: while a
// header is read it enforces the header cap and records the bytes for
// hostValues.
type connReader struct {
	nc        net.Conn
	limit     int64 // bytes the current header may still read
	recording bool
	rec       []byte
}

func (r *connReader) Read(p []byte) (int, error) {
	if r.limit <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > r.limit {
		p = p[:r.limit]
	}
	n, err := r.nc.Read(p)
	r.limit -= int64(n)
	if r.recording {
		r.rec = append(r.rec, p[:n]...)
	}
	return n, err
}

// response is the http.ResponseWriter a connection hands its handler,
// reset for every request. Up to holdBytes of the body are held back
// so that a reply the handler finishes within them goes out with a
// Content-Length; the header is decided as http.Server's chunkWriter
// decides it.
type response struct {
	c       *conn
	req     *http.Request
	header  http.Header
	status  int   // 0 until WriteHeader
	clen    int64 // the reply's Content-Length, -1 while none
	written int64 // body bytes the handler wrote
	held    []byte
	sent    bool // the status line and header are in the write buffer
	chunked bool
	cont    *continueReader // the body of an Expect: 100-continue request

	closeAfter bool // the connection closes once this reply is out
	unread     bool // ... on request bytes nobody read
}

// serve runs the handler for req and writes its reply, reporting
// whether the connection can carry another request.
func (w *response) serve(req *http.Request) bool {
	clear(w.header)
	*w = response{c: w.c, req: req, header: w.header, clen: -1, held: w.held[:0]}

	var h http.Handler = w.c.s.Handler
	if req.RequestURI == "*" && req.Method == "OPTIONS" {
		h = http.HandlerFunc(globalOptions)
	}
	if expect, ok := req.Header["Expect"]; ok {
		if hasToken(expect[0], "100-continue") {
			if req.ProtoAtLeast(1, 1) && req.ContentLength != 0 {
				w.cont = &continueReader{w: w, body: req.Body}
				req.Body = w.cont
			}
		} else if expect[0] != "" {
			h = http.HandlerFunc(expectationFailed)
		}
	}
	h.ServeHTTP(w, req)
	w.finish()
	return !w.closeAfter
}

// expectationFailed answers an expectation other than 100-continue.
func expectationFailed(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Connection", "close")
	w.WriteHeader(http.StatusExpectationFailed)
}

// globalOptions answers OPTIONS *, as http.Server does.
func globalOptions(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Length", "0")
	if r.ContentLength != 0 {
		io.Copy(io.Discard, http.MaxBytesReader(w, r.Body, 4<<10))
	}
}

func (w *response) Header() http.Header { return w.header }

func (w *response) WriteHeader(code int) {
	if w.status != 0 {
		return // a second call changes nothing, as with http.Server
	}
	if code < 100 || code > 999 {
		panic(fmt.Sprintf("invalid WriteHeader code %v", code))
	}
	w.status = code
	if cl := get(w.header, "Content-Length"); cl != "" {
		if v, err := strconv.ParseInt(cl, 10, 64); err == nil && v >= 0 {
			w.clen = v
		} else {
			delete(w.header, "Content-Length")
		}
	}
}

func (w *response) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	if len(p) == 0 {
		return 0, nil
	}
	if !bodyAllowed(w.status) {
		return 0, http.ErrBodyNotAllowed
	}
	w.written += int64(len(p))
	if w.clen != -1 && w.written > w.clen {
		return 0, http.ErrContentLength
	}
	if !w.sent {
		if len(w.held)+len(p) <= holdBytes {
			w.held = append(w.held, p...)
			return len(p), nil
		}
		w.writeHeader(false, p)
	}
	if err := w.writeBody(p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// finish writes what the handler left unwritten, flushes the reply and
// settles whether the connection can be reused.
func (w *response) finish() {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	if !w.sent {
		w.writeHeader(true, nil)
	}
	w.writeBody(nil)
	bw := w.c.bw
	if w.chunked {
		bw.WriteString("0\r\n\r\n")
	}
	flushed := bw.Flush() == nil
	if !flushed {
		w.closeAfter = true
	}
	if w.req.Method != "HEAD" && w.clen != -1 && bodyAllowed(w.status) && w.clen != w.written {
		w.closeAfter = true // the reply fell short of its length
	}
	// The body the handler left is read off even when the connection
	// closes, as http.Server's body Close does: a close on unread bytes
	// resets the connection, and the client can lose the reply.
	if w.req.ContentLength != 0 && flushed && !w.unread && !w.req.Close && (w.cont == nil || w.cont.sawEOF) && !w.c.drain(w.req.Body) {
		w.closeAfter, w.unread = true, true
	}
}

// writeHeader puts the status line and header in the write buffer. p
// is the body write that found the hold full (nil once the handler is
// done); with the held bytes it is the first of the body.
func (w *response) writeHeader(done bool, p []byte) {
	w.sent = true
	req, h := w.req, w.header
	head := req.Method == "HEAD"
	bodyOK := bodyAllowed(w.status)
	te := get(h, "Transfer-Encoding")
	first := w.held
	if len(first) < 512 && len(p) > 0 {
		first = append(first, p[:min(len(p), 512-len(first))]...) // into the hold's spare capacity
	}

	var setCL []byte
	if done && te == "" && bodyOK && !has(h, "Content-Length") && (!head || len(first) > 0) {
		w.clen = int64(len(first))
		setCL = strconv.AppendInt(w.c.num[:0], w.clen, 10)
	}
	var setConn string
	keepAlive10 := req.ProtoMajor == 1 && req.ProtoMinor == 0 && hasToken(get(req.Header, "Connection"), "keep-alive")
	if keepAlive10 && (head || w.clen != -1 || !bodyOK) {
		if !has(h, "Connection") {
			setConn = "keep-alive"
		}
	} else if !req.ProtoAtLeast(1, 1) || req.Close || hasToken(get(req.Header, "Connection"), "close") {
		w.closeAfter = true
	}
	closing := w.c.s.closing.Load()
	if get(h, "Connection") == "close" || closing {
		w.closeAfter = true
	}
	if w.cont != nil && !w.cont.sawEOF {
		w.closeAfter = true // the client may never send the body it offered
	}
	// A declared remainder of maxDrain or more is not waited for, as
	// http.Server does not: its client may send it only after the reply.
	if req.ContentLength != 0 && !w.closeAfter && w.cont == nil &&
		(req.ContentLength-w.c.bodyRead() >= maxDrain || !w.c.drain(req.Body)) {
		w.closeAfter, w.unread = true, true
		delete(h, "Connection")
		setConn = "close"
	}

	var setType string
	if bodyOK {
		if !has(h, "Content-Type") && get(h, "Content-Encoding") == "" && te == "" && len(first) > 0 {
			setType = http.DetectContentType(first)
		}
	} else {
		if w.status == http.StatusNotModified {
			delete(h, "Content-Type")
		}
		delete(h, "Content-Length")
		delete(h, "Transfer-Encoding")
	}
	if w.clen != -1 && te != "" && te != "identity" {
		delete(h, "Content-Length")
		w.clen = -1
	}
	switch {
	case head || !bodyOK || w.clen != -1:
		delete(h, "Transfer-Encoding")
	case req.ProtoAtLeast(1, 1) && te != "identity":
		w.chunked = true
		if te == "chunked" {
			delete(h, "Transfer-Encoding")
		}
		delete(h, "Content-Length")
	default:
		// identity coding, or HTTP/1.0 with no length: the close ends it.
		w.closeAfter = true
		delete(h, "Transfer-Encoding")
	}
	if w.closeAfter && (closing || !hasToken(get(h, "Connection"), "close")) {
		delete(h, "Connection") // an HTTP/1.0 reply keeps the setConn chosen above, as http.Server's does
		if req.ProtoAtLeast(1, 1) {
			setConn = "close"
		}
	}

	bw := w.c.bw
	if req.ProtoAtLeast(1, 1) {
		bw.WriteString("HTTP/1.1 ")
	} else {
		bw.WriteString("HTTP/1.0 ")
	}
	if text := http.StatusText(w.status); text != "" {
		bw.Write(strconv.AppendInt(w.c.date[:0], int64(w.status), 10))
		bw.WriteByte(' ')
		bw.WriteString(text)
		bw.WriteString("\r\n")
	} else {
		fmt.Fprintf(bw, "%03d status code %d\r\n", w.status, w.status)
	}
	h.Write(bw) // sorted, with invalid names dropped and line breaks in values made spaces
	if !has(h, "Date") {
		bw.WriteString("Date: ")
		bw.Write(time.Now().UTC().AppendFormat(w.c.date[:0], http.TimeFormat))
		bw.WriteString("\r\n")
	}
	if setCL != nil {
		bw.WriteString("Content-Length: ")
		bw.Write(setCL)
		bw.WriteString("\r\n")
	}
	if setType != "" {
		writeField(bw, "Content-Type: ", setType)
	}
	if setConn != "" {
		writeField(bw, "Connection: ", setConn)
	}
	if w.chunked {
		bw.WriteString("Transfer-Encoding: chunked\r\n")
	}
	bw.WriteString("\r\n")
}

func writeField(bw *bufio.Writer, key, value string) {
	bw.WriteString(key)
	bw.WriteString(value)
	bw.WriteString("\r\n")
}

// writeBody writes the held bytes and then p, framed as the header
// said: nothing for a HEAD, one chunk when chunked.
func (w *response) writeBody(p []byte) error {
	bw := w.c.bw
	n := len(w.held) + len(p)
	if n == 0 || w.req.Method == "HEAD" {
		w.held = w.held[:0]
		return nil
	}
	if w.chunked {
		bw.Write(strconv.AppendUint(w.c.date[:0], uint64(n), 16))
		bw.WriteString("\r\n")
	}
	bw.Write(w.held)
	w.held = w.held[:0]
	_, err := bw.Write(p)
	if w.chunked {
		_, err = bw.WriteString("\r\n")
	}
	return err
}

// continueReader sends 100 Continue on the first read of a body whose
// client waits for it, unless the reply has begun.
type continueReader struct {
	w      *response
	body   io.ReadCloser
	asked  bool
	sawEOF bool
}

func (cr *continueReader) Read(p []byte) (int, error) {
	if !cr.asked && !cr.w.sent && cr.w.written == 0 {
		cr.asked = true
		cr.w.c.bw.WriteString("HTTP/1.1 100 Continue\r\n\r\n")
		cr.w.c.bw.Flush()
	}
	n, err := cr.body.Read(p)
	if err == io.EOF {
		cr.sawEOF = true
	}
	return n, err
}

func (cr *continueReader) Close() error { return cr.body.Close() }

func isReadOp(err error) bool {
	oe, ok := err.(*net.OpError)
	return ok && oe.Op == "read"
}

func bodyAllowed(status int) bool {
	return status >= 200 && status != http.StatusNoContent && status != http.StatusNotModified
}

// get is h's first value under key, as written (not canonicalized).
func get(h http.Header, key string) string {
	if v := h[key]; len(v) > 0 {
		return v[0]
	}
	return ""
}

func has(h http.Header, key string) bool {
	_, ok := h[key]
	return ok
}

// hasToken reports whether the comma- or space-separated list v holds
// the ASCII token, ignoring case.
func hasToken(v, token string) bool {
	for sp := 0; sp+len(token) <= len(v); sp++ {
		if sp > 0 && !tokenBoundary(v[sp-1]) {
			continue
		}
		if end := sp + len(token); end != len(v) && !tokenBoundary(v[end]) {
			continue
		}
		if strings.EqualFold(v[sp:sp+len(token)], token) {
			return true
		}
	}
	return false
}

func tokenBoundary(b byte) bool { return b == ' ' || b == ',' || b == '\t' }

// leadingCRLF counts the CR and LF bytes that open b.
func leadingCRLF(b []byte) int {
	n := 0
	for n < len(b) && (b[n] == '\r' || b[n] == '\n') {
		n++
	}
	return n
}

// validFieldName reports whether k is an RFC 7230 token. (textproto
// lets a name with a space through.)
func validFieldName(k string) bool {
	for i := 0; i < len(k); i++ {
		c := k[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9') &&
			strings.IndexByte("!#$%&'*+-.^_`|~", c) < 0 {
			return false
		}
	}
	return k != ""
}

// validFieldValue reports whether v holds no control byte but a space
// or a tab.
func validFieldValue(v string) bool {
	for i := 0; i < len(v); i++ {
		if c := v[i]; c < ' ' && c != '\t' || c == 0x7f {
			return false
		}
	}
	return true
}

// validHost reports whether h holds only bytes a Host header may, by
// the lenient rule http.Server applies.
func validHost(h string) bool {
	for i := 0; i < len(h); i++ {
		c := h[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9') &&
			strings.IndexByte("!$%&'()*+,-.:;=[]_~", c) < 0 {
			return false
		}
	}
	return true
}
