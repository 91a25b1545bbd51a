package client

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
)

// The limits every exchange runs under, set as deadlines on its
// connection: a dead or wedged server turns into a prompt error, not a
// hung scatter-gather slot.
const (
	dialTimeout     = 2 * time.Second
	exchangeTimeout = 60 * time.Second // request written and reply read
	keepAlivePeriod = 30 * time.Second // TCP keep-alive probes

	refusalWait = 50 * time.Millisecond // for the answer of a server that cut the request short

	maxErrorBody   = 4 << 10  // of a non-2xx reply, what a StatusError can quote
	maxHeaderBytes = 64 << 10 // status line and header of one reply
	maxPresize     = 64 << 20 // largest buffer allocated on a Content-Length alone
)

// firstByteTimeout is how long a written request waits for the first
// byte of its reply. A variable only so that tests can shorten it.
var firstByteTimeout = 15 * time.Second

// link is a client's hop to its one server: a pool of keep-alive TCP
// connections on which the calling goroutine itself writes an HTTP/1.1
// request and reads the reply. It speaks what sketchd and a coordinator
// speak and no more — no TLS, proxies, redirects, Expect: 100-continue,
// pipelining, chunk extensions or trailers; a reply outside that is an
// error, never a guess.
type link struct {
	base    string // as given to New, for error text
	addr    string // host:port to dial; "" when base is not an http:// URL
	host    string // Host header
	prefix  string // path of the base URL, nearly always ""
	maxIdle int

	mu   sync.Mutex
	idle []*conn // most recently used last
}

// conn is one connection and the buffers that stay with it.
type conn struct {
	nc      net.Conn
	br      *bufio.Reader
	hdr     []byte      // request line and header of the current exchange
	vec     [2][]byte   // hdr and body: backing of bufs
	bufs    net.Buffers // consumed by its WriteTo, so re-sliced from vec every time
	scratch []byte      // where a reply nobody reads lands
	etag    []byte      // backing of the current reply's ETag
	reused  bool        // has completed an exchange before this one

	// How far the current exchange got: what the redial rule asks.
	wrote    bool // a byte of the request went out
	answered bool // a byte of the reply came in
}

func maxIdlePerHost() int {
	if n := runtime.GOMAXPROCS(0) * 2; n > 16 {
		return n
	}
	return 16
}

func newLink(base string) *link {
	l := &link{base: base, maxIdle: maxIdlePerHost()}
	rest, ok := strings.CutPrefix(strings.TrimRight(base, "/"), "http://")
	host, path, hasPath := strings.Cut(rest, "/")
	if !ok || host == "" || strings.ContainsFunc(host, func(r rune) bool { return r <= ' ' || r == 0x7f }) {
		return l
	}
	l.base, l.host, l.addr = "http://"+rest, host, host
	if _, _, err := net.SplitHostPort(host); err != nil {
		l.addr = host + ":80"
	}
	if hasPath {
		l.prefix = "/" + path
	}
	return l
}

// get takes an idle connection, or dials when there is none or fresh
// is set.
func (l *link) get(fresh bool) (*conn, error) {
	if !fresh {
		l.mu.Lock()
		if n := len(l.idle); n > 0 {
			cn := l.idle[n-1]
			l.idle[n-1] = nil
			l.idle = l.idle[:n-1]
			l.mu.Unlock()
			return cn, nil
		}
		l.mu.Unlock()
	}
	d := net.Dialer{Timeout: dialTimeout, KeepAlive: keepAlivePeriod}
	nc, err := d.Dial("tcp", l.addr)
	if err != nil {
		return nil, err
	}
	return &conn{nc: nc, br: bufio.NewReader(nc)}, nil
}

// put returns a connection whose exchange ended cleanly; past maxIdle
// it is closed instead. A link no one holds any more needs no Close:
// the runtime closes a socket that became unreachable.
func (l *link) put(cn *conn) {
	cn.reused = true
	l.mu.Lock()
	if len(l.idle) < l.maxIdle {
		l.idle = append(l.idle, cn)
		cn = nil
	}
	l.mu.Unlock()
	if cn != nil {
		cn.nc.Close()
	}
}

// closeIdle empties the pool.
func (l *link) closeIdle() {
	l.mu.Lock()
	idle := l.idle
	l.idle = nil
	l.mu.Unlock()
	for _, cn := range idle {
		cn.nc.Close()
	}
}

// request is the head of one operation as roundTrip sends it. The body
// travels beside it: exchange parks the body in the connection for the
// write, and a struct holding it would drag a query its caller built on
// the stack to the heap with it.
type request struct {
	op          server.Op
	name        string
	query       []byte // escaped, without the "?"
	contentType string
	// tag, when not nil, makes a GET conditional: a non-empty *tag goes
	// out as If-None-Match, and a reply other than 304 replaces it with
	// its ETag (empty when it has none).
	tag *[]byte
}

// roundTrip is the one request path: it sends rq and body on a pooled
// connection and returns the reply's status and body, appended to
// dst[:0]; with discard the body is left in a buffer the connection
// keeps and not returned. A status outside 2xx, or other than 200 to a
// GET, is a *StatusError — except a 304 to a conditional GET, whose
// answer is dst as it was — and on any error the body comes back
// empty, its capacity kept.
//
// A pooled connection may have been closed by the server while it sat
// idle. Such a request is sent once more on a fresh connection under
// net/http's rule — when it is a GET the server did not begin to
// answer, or when not a byte of it went out — and never otherwise: a
// POST that was written may have been applied.
func (c *Client) roundTrip(rq request, body, dst []byte, discard bool) (int, []byte, error) {
	l := c.link
	if l.addr == "" {
		return 0, dst[:0], fmt.Errorf("client: base URL %q is not http://host[:port]", l.base)
	}
	held := dst
	for fresh := false; ; fresh = true {
		cn, err := l.get(fresh)
		if err != nil {
			return 0, dst[:0], c.failed(rq.op, rq.name, err)
		}
		cn.hdr = c.appendRequest(cn.hdr[:0], rq, len(body))
		into := dst
		if discard {
			into = cn.scratch
		}
		rep, err := cn.exchange(body, into[:0])
		if discard {
			cn.scratch = rep.body[:0]
		} else {
			dst = rep.body
		}
		if err == nil {
			switch {
			case rep.status == 304 && rq.tag != nil && len(*rq.tag) > 0:
				dst = held // still current: the 304 had no body to put in it
			case rep.status != 200 && (rep.status/100 != 2 || rq.op.Method == "GET"):
				err = statusError(rep.status, rep.retryAfter, rep.body)
			case rq.tag != nil:
				*rq.tag = append((*rq.tag)[:0], rep.etag...) // before cn, whose buffer rep.etag is, goes back
			}
			if rep.keep {
				l.put(cn)
			} else {
				cn.nc.Close()
			}
			if err != nil || discard {
				dst = dst[:0]
			}
			return rep.status, dst, err
		}
		cn.nc.Close()
		if !cn.reused || errors.Is(err, os.ErrDeadlineExceeded) {
			return 0, dst[:0], c.failed(rq.op, rq.name, err)
		}
		// The server went away under an idle connection, so it did under
		// the others of the pool, which are no younger.
		l.closeIdle()
		if cn.wrote && (rq.op.Method != "GET" || cn.answered) {
			return 0, dst[:0], c.failed(rq.op, rq.name, err)
		}
	}
}

// failed names the request an error ended.
func (c *Client) failed(op server.Op, name string, err error) error {
	at := op.AppendPath([]byte(op.Method+" "+c.link.base), c.tenant, name)
	return fmt.Errorf("client: %s: %w", at, err)
}

// appendRequest writes rq's request line and header, declaring a body
// of n bytes.
func (c *Client) appendRequest(h []byte, rq request, n int) []byte {
	h = append(h, rq.op.Method...)
	h = append(h, ' ')
	h = append(h, c.link.prefix...)
	h = rq.op.AppendPath(h, c.tenant, rq.name)
	if len(rq.query) > 0 {
		h = append(h, '?')
		h = append(h, rq.query...)
	}
	h = append(h, " HTTP/1.1\r\nHost: "...)
	h = append(h, c.link.host...)
	if rq.contentType != "" {
		h = append(h, "\r\nContent-Type: "...)
		h = append(h, rq.contentType...)
	}
	if rq.tag != nil && len(*rq.tag) > 0 {
		h = append(h, "\r\nIf-None-Match: "...)
		h = append(h, *rq.tag...)
	}
	if rq.op.Method != "GET" || n > 0 {
		h = append(h, "\r\nContent-Length: "...)
		h = strconv.AppendInt(h, int64(n), 10)
	}
	return append(h, "\r\n\r\n"...)
}

// reply is what one exchange read.
type reply struct {
	status     int
	retryAfter time.Duration
	etag       []byte // the first ETag field's value, in the connection's buffer
	body       []byte
	keep       bool // the connection can carry another exchange
}

// exchange writes cn.hdr and body in one write and reads the reply,
// appending its body to dst. The deadlines are the connection's own, so
// no timer goroutine and no second reader stand behind the call.
// SetDeadline fails only on a closed connection, which the next read or
// write reports.
func (cn *conn) exchange(body, dst []byte) (reply, error) {
	cn.wrote, cn.answered = false, false
	start := time.Now()
	cn.nc.SetDeadline(start.Add(exchangeTimeout))
	var n int64
	var err error
	if len(body) == 0 {
		var m int
		m, err = cn.nc.Write(cn.hdr)
		n = int64(m)
	} else {
		cn.vec = [2][]byte{cn.hdr, body}
		cn.bufs = cn.vec[:]
		n, err = cn.bufs.WriteTo(cn.nc)
		cn.vec = [2][]byte{} // the caller's body is not ours to keep
	}
	cn.wrote = n > 0
	firstByte := start.Add(firstByteTimeout)
	if err != nil {
		if n == 0 {
			return reply{body: dst}, err
		}
		// A server that refuses a request it has not read to the end (a
		// 413) answers and hangs up under the rest of the write. Its
		// answer, when it is already here, says more than the write
		// error does.
		firstByte = time.Now().Add(refusalWait)
	}
	cn.nc.SetReadDeadline(firstByte)
	if _, perr := cn.br.Peek(1); perr != nil {
		if err == nil {
			err = perr
		}
		return reply{body: dst}, err
	}
	cn.answered = true
	cn.nc.SetReadDeadline(start.Add(exchangeTimeout))
	rep, rerr := cn.readReply(dst)
	if err != nil {
		rep.keep = false
		if rerr != nil {
			rerr = err
		}
	}
	return rep, rerr
}

// protocolError is a reply this client does not read. The parser takes
// the subset of HTTP/1.1 a Go server emits and refuses the rest, so
// whatever it accepts it reads as net/http would (FuzzClientResponse
// holds it to that).
type protocolError string

func (e protocolError) Error() string { return "malformed HTTP reply: " + string(e) }

// readReply parses a status line, the header fields that frame the body
// or steer the caller, and the body.
func (cn *conn) readReply(dst []byte) (rep reply, err error) {
	rep.body = dst
	line, err := cn.line()
	if err != nil {
		return rep, err
	}
	// "HTTP/1.x SSS" or "HTTP/1.x SSS reason"
	if len(line) < 12 || string(line[:7]) != "HTTP/1." || line[7] != '0' && line[7] != '1' || line[8] != ' ' || len(line) > 12 && line[12] != ' ' {
		return rep, protocolError("status line")
	}
	for _, d := range line[9:12] {
		if d < '0' || d > '9' {
			return rep, protocolError("status code")
		}
		rep.status = rep.status*10 + int(d-'0')
	}
	if rep.status < 200 {
		return rep, protocolError("interim status " + strconv.Itoa(rep.status))
	}
	http11 := line[7] == '1'
	rep.keep = http11
	length, chunked, tagged := int64(-1), false, false
	for total := len(line); ; {
		if line, err = cn.line(); err != nil {
			return rep, err
		}
		if len(line) == 0 {
			break
		}
		if total += len(line); total > maxHeaderBytes {
			return rep, protocolError("header over " + strconv.Itoa(maxHeaderBytes) + " bytes")
		}
		key, val, ok := splitField(line)
		switch {
		case !ok:
			return rep, protocolError("header line")
		case foldEq(key, "content-length"):
			if length >= 0 {
				return rep, protocolError("two Content-Length fields")
			}
			// Decimal digits and nothing else, as net/http insists.
			n, err := strconv.ParseUint(string(val), 10, 62)
			if err != nil {
				return rep, protocolError("Content-Length")
			}
			length = int64(n)
		case foldEq(key, "transfer-encoding"):
			if chunked || !http11 || !foldEq(val, "chunked") {
				return rep, protocolError("unsupported Transfer-Encoding")
			}
			chunked = true
		case foldEq(key, "connection"):
			rep.keep = rep.keep && foldEq(val, "keep-alive")
		case foldEq(key, "etag") && !tagged:
			cn.etag = append(cn.etag[:0], val...)
			rep.etag, tagged = cn.etag, true
		case foldEq(key, "retry-after") && rep.retryAfter == 0:
			// The delay-seconds form, which sketchd emits; an HTTP date
			// parses to 0.
			if secs, err := strconv.ParseInt(string(val), 10, 64); err == nil && secs > 0 {
				rep.retryAfter = time.Duration(secs) * time.Second
			}
		}
	}
	if chunked && length >= 0 {
		return rep, protocolError("both Content-Length and Transfer-Encoding")
	}

	limit := int64(-1)
	if rep.status/100 != 2 {
		limit = maxErrorBody
	}
	switch {
	case rep.status == 204 || rep.status == 304: // no body, whatever the header says
		rep.keep = rep.keep && length <= 0 && !chunked
	case chunked:
		err = cn.readChunked(&rep, limit)
	case length >= 0:
		if limit >= 0 && length > limit {
			length, rep.keep = limit, false
		}
		if length > int64(cap(rep.body)) && length <= maxPresize {
			rep.body = make([]byte, 0, length+1) // grown to once, not by doubling
		}
		rep.body, err = cn.readFull(rep.body, length)
	default: // until the server closes
		rep.keep = false
		var r io.Reader = cn.br
		if limit >= 0 {
			r = io.LimitReader(r, limit)
		}
		rep.body, err = server.ReadAppend(r, rep.body)
	}
	// Bytes past the reply's end belong to no exchange.
	rep.keep = rep.keep && cn.br.Buffered() == 0
	return rep, err
}

// line reads one CRLF-terminated line and returns it without the CRLF,
// valid until the next read.
func (cn *conn) line() ([]byte, error) {
	p, err := cn.br.ReadSlice('\n')
	switch {
	case err == io.EOF:
		return nil, io.ErrUnexpectedEOF
	case err == bufio.ErrBufferFull:
		return nil, protocolError("line over " + strconv.Itoa(cn.br.Size()) + " bytes")
	case err != nil:
		return nil, err
	case len(p) < 2 || p[len(p)-2] != '\r':
		return nil, protocolError("line ends in a bare LF")
	}
	return p[:len(p)-2], nil
}

// readFull appends exactly n more bytes of the reply to dst.
func (cn *conn) readFull(dst []byte, n int64) ([]byte, error) {
	for n > 0 {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		p := dst[len(dst):cap(dst)]
		if int64(len(p)) > n {
			p = p[:n]
		}
		m, err := cn.br.Read(p)
		dst = dst[:len(dst)+m]
		n -= int64(m)
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// readChunked appends a chunked body to rep.body, up to limit bytes of
// it when limit is not negative (the connection is then not kept).
func (cn *conn) readChunked(rep *reply, limit int64) error {
	for {
		line, err := cn.line()
		if err != nil {
			return err
		}
		// Hex digits and nothing else: no sign, no extension.
		usize, err := strconv.ParseUint(string(line), 16, 60)
		if err != nil {
			return protocolError("chunk size")
		}
		size := int64(usize)
		if size == 0 {
			break
		}
		if room := limit - int64(len(rep.body)); limit >= 0 && size > room {
			rep.keep = false
			rep.body, err = cn.readFull(rep.body, room)
			return err
		}
		if rep.body, err = cn.readFull(rep.body, size); err != nil {
			return err
		}
		if line, err = cn.line(); err != nil {
			return err
		} else if len(line) != 0 {
			return protocolError("chunk does not end in CRLF")
		}
	}
	if line, err := cn.line(); err != nil {
		return err
	} else if len(line) != 0 {
		return protocolError("trailer")
	}
	return nil
}

// splitField cuts "key: value" and checks both against the field
// grammar: token bytes before the colon, no control bytes after it.
func splitField(line []byte) (key, val []byte, ok bool) {
	for i, c := range line {
		if c == ':' {
			key, val = line[:i], line[i+1:]
			break
		}
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0) {
			return nil, nil, false
		}
	}
	if len(key) == 0 {
		return nil, nil, false
	}
	for _, c := range val {
		if c < ' ' && c != '\t' || c == 0x7f {
			return nil, nil, false
		}
	}
	for len(val) > 0 && (val[0] == ' ' || val[0] == '\t') {
		val = val[1:]
	}
	for n := len(val); n > 0 && (val[n-1] == ' ' || val[n-1] == '\t'); n-- {
		val = val[:n-1]
	}
	return key, val, true
}

// foldEq reports whether b is the lower-case ASCII word, letter case
// aside.
func foldEq(b []byte, lower string) bool {
	if len(b) != len(lower) {
		return false
	}
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}
