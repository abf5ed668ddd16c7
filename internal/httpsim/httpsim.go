// Package httpsim provides the minimal HTTP/1.0 machinery the simulated web
// servers and the load generator share: an incremental request parser (so a
// server can handle requests that arrive split across reads, including the
// deliberately incomplete requests of the paper's inactive clients), request
// and response formatting, and a static content store holding the 6 KB
// index.html document the benchmark requests.
package httpsim

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
)

// Errors reported by the parser.
var (
	// ErrMalformed indicates a request line or header that cannot be parsed.
	ErrMalformed = errors.New("httpsim: malformed request")
	// ErrTooLarge indicates a request exceeding the parser's size limit.
	ErrTooLarge = errors.New("httpsim: request too large")
)

// MaxRequestBytes bounds how much request data the parser accepts before
// declaring the request hostile, matching the small fixed buffers of
// thttpd-era servers.
const MaxRequestBytes = 8192

// Request is a parsed HTTP request. Of its headers only Connection is kept,
// the one header a server reads (KeepAlive): the value of the last
// Connection line, empty when the request sent none. Other header lines are
// still checked for a colon.
type Request struct {
	Path       string
	Version    string
	Connection string
}

// HTTP11 reports whether the request was made with HTTP/1.1.
func (r *Request) HTTP11() bool { return r.Version == "HTTP/1.1" }

// KeepAlive reports whether the client asked for the connection to persist
// after the response: HTTP/1.1 defaults to persistent unless the client sent
// the `close` option; HTTP/1.0 persists only on an explicit `keep-alive`, and
// `close` wins over it. The Connection value is a comma-separated list of
// case-insensitive options (RFC 9110 §7.6.1), so `Close` counts, and so does
// `close, TE`.
func (r *Request) KeepAlive() bool {
	if hasOption(r.Connection, "close") {
		return false
	}
	return r.HTTP11() || hasOption(r.Connection, "keep-alive")
}

// hasOption reports whether the comma-separated list names opt, ignoring
// case and the whitespace around each option. A list without a comma is one
// comparison.
func hasOption(list, opt string) bool {
	for list != "" {
		var item string
		item, list, _ = strings.Cut(list, ",")
		if strings.EqualFold(strings.TrimSpace(item), opt) {
			return true
		}
	}
	return false
}

// FormatRequest renders a well-formed HTTP/1.0 GET request for path, as the
// httperf-like load generator sends it.
func FormatRequest(path string) []byte {
	return []byte(fmt.Sprintf("GET %s HTTP/1.0\r\nUser-Agent: httperf-sim/0.8\r\nHost: server.citi.umich.edu\r\n\r\n", path))
}

// FormatRequest11 renders an HTTP/1.1 GET request for path. With close set
// the request carries `Connection: close` (the keep-alive client's final
// request); otherwise it relies on HTTP/1.1's default persistence.
func FormatRequest11(path string, close bool) []byte {
	conn := ""
	if close {
		conn = "Connection: close\r\n"
	}
	return []byte(fmt.Sprintf("GET %s HTTP/1.1\r\nUser-Agent: httperf-sim/0.8\r\nHost: server.citi.umich.edu\r\n%s\r\n", path, conn))
}

// FormatPartialRequest renders the deliberately incomplete request an inactive
// (high-latency, stalled) client sends: the request line without the final
// blank line, so the server keeps the connection open waiting for the rest.
func FormatPartialRequest(path string) []byte {
	return []byte(fmt.Sprintf("GET %s HTTP/1.0\r\nUser-Agent: httperf-sim/0.8\r\n", path))
}

// Parser incrementally assembles a request from the byte chunks a server
// reads. It is a small state machine over the accumulated buffer: a request is
// complete when the terminating blank line has been seen. Bytes beyond the
// terminator (pipelined follow-up requests) are retained; Consume discards the
// completed request and advances to them.
//
// The parser is built for reuse on the server's hottest path: Reset keeps the
// accumulated buffer's storage, the terminator search resumes where the
// previous Feed left off (so trickled bytes cost O(new bytes), not
// O(buffer)), and the tokens every benchmark request carries are interned. Parsing a well-formed benchmark request
// allocates nothing at steady state.
//
// A parser also remembers the last head it parsed successfully, with its
// terminator, and the result. The parse is a pure function of the head's
// bytes (parseHead writes only store, which is zero before every parse), so a
// buffer that starts with a byte-identical head and terminator takes the
// remembered Request without a search or a parse. A failed parse is never
// remembered. The memo survives Reset and Consume: a pooled connection record
// keeps its parser, and a benchmark client sends the same head on every
// connection.
type Parser struct {
	buf      []byte
	end      int // one past the completed request's terminator
	complete bool
	req      *Request // points at store once complete, nil before
	store    Request
	err      error
	memoReq  []byte  // the last head parsed successfully and its terminator
	memo     Request // memoReq's parse
}

// NewParser returns an empty request parser.
func NewParser() *Parser { return &Parser{} }

var crlf2 = []byte("\r\n\r\n")

// Feed appends data read from the connection and reports whether a complete
// request is now available. Bytes fed after completion are buffered for
// Consume but not scanned.
func (p *Parser) Feed(data []byte) (complete bool, err error) {
	if p.err != nil {
		return false, p.err
	}
	if p.complete {
		p.buf = append(p.buf, data...)
		return true, nil
	}
	// The terminator cannot end before the new bytes, so resume the search
	// three bytes before them (it may straddle the boundary).
	from := len(p.buf) - 3
	if from < 0 {
		from = 0
	}
	p.buf = append(p.buf, data...)
	if len(p.buf) > MaxRequestBytes {
		p.err = ErrTooLarge
		return false, p.err
	}
	return p.scan(from)
}

// scan searches for the request terminator at or after from and parses the
// head on a match. A buffer that starts with the memo's request is a hit
// without a search: the memo's terminator was the first in its buffer, so its
// head holds none and does not end in "\r\n", and no terminator here can
// start before the memo's does.
func (p *Parser) scan(from int) (bool, error) {
	if len(p.memoReq) > 0 && bytes.HasPrefix(p.buf, p.memoReq) {
		p.store = p.memo
		p.end = len(p.memoReq)
	} else {
		idx := bytes.Index(p.buf[from:], crlf2)
		if idx < 0 {
			return false, nil
		}
		if perr := p.parseHead(p.buf[:from+idx]); perr != nil {
			p.err = perr
			return false, perr
		}
		p.end = from + idx + len(crlf2)
		p.memoReq = append(p.memoReq[:0], p.buf[:p.end]...)
		p.memo = p.store
	}
	p.req = &p.store
	p.complete = true
	return true, nil
}

// Consume discards the completed request's bytes, retains any pipelined
// remainder and scans it, reporting whether another complete request is
// already buffered. Calling Consume before completion is a no-op.
func (p *Parser) Consume() (complete bool, err error) {
	if !p.complete {
		return false, p.err
	}
	n := copy(p.buf, p.buf[p.end:])
	p.buf = p.buf[:n]
	p.end = 0
	p.complete = false
	p.req = nil
	p.store = Request{}
	if len(p.buf) == 0 {
		return false, nil
	}
	return p.scan(0)
}

// Request returns the parsed request once Feed has reported it complete. The
// returned value is owned by the parser and is invalidated by Reset.
func (p *Parser) Request() *Request { return p.req }

// Reset clears the parser for reuse, keeping the buffer's storage so a pooled
// connection's next request parses without allocating.
func (p *Parser) Reset() {
	p.buf = p.buf[:0]
	p.end = 0
	p.complete = false
	p.req = nil
	p.err = nil
	p.store = Request{}
}

// parseHead parses the request line and headers (everything before the blank
// line) into the parser's reusable request.
func (p *Parser) parseHead(head []byte) error {
	line, rest, _ := bytes.Cut(head, crlf2[:2])
	// Request line: exactly three space-separated parts.
	s1 := bytes.IndexByte(line, ' ')
	if s1 < 0 {
		return ErrMalformed
	}
	s2 := bytes.IndexByte(line[s1+1:], ' ')
	if s2 < 0 {
		return ErrMalformed
	}
	s2 += s1 + 1
	if bytes.IndexByte(line[s2+1:], ' ') >= 0 {
		return ErrMalformed
	}
	method, path, version := line[:s1], line[s1+1:s2], line[s2+1:]
	if len(method) == 0 || len(path) == 0 || path[0] != '/' || !bytes.HasPrefix(version, []byte("HTTP/")) {
		return ErrMalformed
	}
	p.store.Path = intern(path)
	p.store.Version = intern(version)
	for len(rest) > 0 {
		line, rest, _ = bytes.Cut(rest, crlf2[:2])
		if len(line) == 0 {
			continue
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 {
			return ErrMalformed
		}
		if internHeaderKey(bytes.TrimSpace(line[:colon])) == "connection" {
			p.store.Connection = intern(bytes.TrimSpace(line[colon+1:]))
		}
	}
	return nil
}

// internHeaderKey lower-cases a header name, returning shared constants for
// the benchmark request's headers.
func internHeaderKey(b []byte) string {
	switch string(b) {
	case "User-Agent", "user-agent":
		return "user-agent"
	case "Host", "host":
		return "host"
	case "Connection", "connection":
		return "connection"
	}
	return strings.ToLower(string(b))
}

// intern converts a byte slice to a string, returning a shared constant for
// the tokens every benchmark request carries so the per-request parse does
// not allocate. The switch's string conversions do not allocate.
func intern(b []byte) string {
	switch string(b) {
	case "HTTP/1.0":
		return "HTTP/1.0"
	case "HTTP/1.1":
		return "HTTP/1.1"
	case DefaultDocumentPath:
		return DefaultDocumentPath
	case "/small.html":
		return "/small.html"
	case "/medium.html":
		return "/medium.html"
	case "/large.html":
		return "/large.html"
	case "httperf-sim/0.8":
		return "httperf-sim/0.8"
	case "server.citi.umich.edu":
		return "server.citi.umich.edu"
	case "keep-alive":
		return "keep-alive"
	case "Keep-Alive":
		return "Keep-Alive"
	case "close":
		return "close"
	case "Close":
		return "Close"
	}
	return string(b)
}

// Status codes used by the simulated servers.
const (
	StatusOK       = 200
	StatusNotFound = 404
	StatusBadReq   = 400
)

// statusText maps the codes above to reason phrases.
func statusText(code int) string {
	switch code {
	case StatusOK:
		return "OK"
	case StatusNotFound:
		return "Not Found"
	case StatusBadReq:
		return "Bad Request"
	default:
		return "Unknown"
	}
}

// connectionToken is the Connection header value for a response that keeps
// the connection open (keepAlive) or closes it.
func connectionToken(keepAlive bool) string {
	if keepAlive {
		return "keep-alive"
	}
	return "close"
}

// versionToken is the response status line's protocol token.
func versionToken(http11 bool) string {
	if http11 {
		return "HTTP/1.1"
	}
	return "HTTP/1.0"
}

// ResponseHeadVersion renders the response status line and headers with the
// given protocol version and Connection disposition. With http11 and
// keepAlive both false it produces exactly the historical HTTP/1.0 head.
func ResponseHeadVersion(code, contentLength int, http11, keepAlive bool) []byte {
	return []byte(fmt.Sprintf(
		"%s %d %s\r\nServer: thttpd-sim/2.16\r\nContent-Type: text/html\r\nContent-Length: %d\r\nConnection: %s\r\n\r\n",
		versionToken(http11), code, statusText(code), contentLength, connectionToken(keepAlive)))
}

// responseHeadFixed is the byte count of ResponseHeadVersion's format string
// with the variable parts (status code, reason phrase, content length,
// connection token) removed: the version token + " " + " " + the fixed header
// block. Both version tokens are eight bytes.
const responseHeadFixed = len("HTTP/1.0 ") + len(" ") +
	len("\r\nServer: thttpd-sim/2.16\r\nContent-Type: text/html\r\nContent-Length: ") +
	len("\r\nConnection: ") + len("\r\n\r\n")

// decimalDigits is the rendered width of %d for v.
func decimalDigits(v int) int {
	n := 1
	if v < 0 {
		n++ // the minus sign
		v = -v
	}
	for v >= 10 {
		n++
		v /= 10
	}
	return n
}

// ResponseSize is the total on-the-wire size of an HTTP/1.0 response with the
// given status and body length. It is computed arithmetically — the servers
// call it once per request to size their write, and formatting the header just
// to measure it was a measurable share of the serve path's allocations.
func ResponseSize(code, contentLength int) int {
	return ResponseSizeVersion(code, contentLength, false)
}

// ResponseSizeVersion is the total on-the-wire size of a response whose
// Connection disposition is keepAlive. The version token does not change the
// size (both are eight bytes); the connection token does.
func ResponseSizeVersion(code, contentLength int, keepAlive bool) int {
	return responseHeadFixed + len(connectionToken(keepAlive)) +
		decimalDigits(code) + len(statusText(code)) +
		decimalDigits(contentLength) + contentLength
}

// ContentStore is the static document tree the server exports. Only sizes are
// stored; the simulation never ships document bodies.
type ContentStore struct {
	docs map[string]int
}

// DefaultDocumentPath is the document every benchmark run requests.
const DefaultDocumentPath = "/index.html"

// DefaultDocumentSize is the paper's workload: "we request a 6 Kbyte document,
// a typical index.html file from the CITI web site".
const DefaultDocumentSize = 6 * 1024

// NewContentStore returns an empty store.
func NewContentStore() *ContentStore { return &ContentStore{docs: make(map[string]int)} }

// DefaultContentStore returns a store holding the paper's 6 KB index.html plus
// a small spread of other document sizes used by the extension workloads.
func DefaultContentStore() *ContentStore {
	cs := NewContentStore()
	cs.Add(DefaultDocumentPath, DefaultDocumentSize)
	cs.Add("/small.html", 512)
	cs.Add("/medium.html", 24*1024)
	cs.Add("/large.html", 128*1024)
	return cs
}

// Add registers a document of the given size.
func (c *ContentStore) Add(path string, size int) {
	if size < 0 {
		size = 0
	}
	c.docs[path] = size
}

// Lookup returns a document's size.
func (c *ContentStore) Lookup(path string) (int, bool) {
	size, ok := c.docs[path]
	return size, ok
}

// Len reports the number of documents.
func (c *ContentStore) Len() int { return len(c.docs) }
