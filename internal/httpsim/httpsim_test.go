package httpsim

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestFormatRequestIsParseable(t *testing.T) {
	raw := FormatRequest("/index.html")
	p := NewParser()
	complete, err := p.Feed(raw)
	if err != nil || !complete {
		t.Fatalf("Feed: complete=%v err=%v", complete, err)
	}
	req := p.Request()
	if req.Path != "/index.html" || req.Version != "HTTP/1.0" {
		t.Fatalf("req = %+v", req)
	}
	if req.Connection != "" || req.KeepAlive() {
		t.Fatalf("Connection = %q, KeepAlive = %v; the benchmark request sends no Connection header",
			req.Connection, req.KeepAlive())
	}
	// Every header line needs a colon, even one the parser does not keep.
	bad := strings.Replace(string(raw), "Host:", "Host", 1)
	if _, err := NewParser().Feed([]byte(bad)); err != ErrMalformed {
		t.Fatalf("header line without a colon: err = %v, want ErrMalformed", err)
	}
}

func TestPartialRequestNeverCompletes(t *testing.T) {
	raw := FormatPartialRequest("/index.html")
	p := NewParser()
	complete, err := p.Feed(raw)
	if err != nil {
		t.Fatal(err)
	}
	if complete || p.complete {
		t.Fatal("partial request must not complete — it is what keeps inactive connections open")
	}
	if len(p.buf) != len(raw) {
		t.Fatalf("Buffered = %d", len(p.buf))
	}
	// Completing it later works.
	complete, err = p.Feed([]byte("\r\n"))
	if err != nil || !complete {
		t.Fatalf("completion: %v %v", complete, err)
	}
}

func TestParserIncrementalBytes(t *testing.T) {
	raw := FormatRequest("/small.html")
	p := NewParser()
	for i := 0; i < len(raw); i++ {
		complete, err := p.Feed(raw[i : i+1])
		if err != nil {
			t.Fatalf("byte %d: %v", i, err)
		}
		if complete != (i == len(raw)-1) {
			t.Fatalf("byte %d: complete=%v", i, complete)
		}
	}
	if p.Request().Path != "/small.html" {
		t.Fatalf("path = %q", p.Request().Path)
	}
	// Feeding after completion is a no-op.
	if complete, err := p.Feed([]byte("garbage")); !complete || err != nil {
		t.Fatalf("post-completion feed: %v %v", complete, err)
	}
	p.Reset()
	if p.complete || len(p.buf) != 0 {
		t.Fatal("Reset did not clear state")
	}
}

func TestParserMalformedRequests(t *testing.T) {
	cases := []string{
		"GARBAGE\r\n\r\n",
		"GET /x\r\n\r\n",
		"GET noslash HTTP/1.0\r\n\r\n",
		"GET / FTP/1.0\r\n\r\n",
		"GET / HTTP/1.0\r\nBadHeaderNoColon\r\n\r\n",
		" / HTTP/1.0\r\n\r\n",
	}
	for _, c := range cases {
		p := NewParser()
		complete, err := p.Feed([]byte(c))
		if complete || err == nil {
			t.Errorf("case %q: complete=%v err=%v", c, complete, err)
		}
		if p.err == nil {
			t.Errorf("case %q: Err not sticky", c)
		}
		// Subsequent feeds keep returning the error.
		if _, err2 := p.Feed([]byte("more")); err2 == nil {
			t.Errorf("case %q: error not sticky on later feeds", c)
		}
	}
}

func TestParserTooLarge(t *testing.T) {
	p := NewParser()
	junk := strings.Repeat("X-Filler: aaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n", 300)
	_, err := p.Feed([]byte("GET / HTTP/1.0\r\n" + junk))
	if err != ErrTooLarge {
		t.Fatalf("err = %v", err)
	}
}

func TestResponseHeadAndSize(t *testing.T) {
	head := ResponseHeadVersion(StatusOK, 6144, false, false)
	s := string(head)
	if !strings.HasPrefix(s, "HTTP/1.0 200 OK\r\n") {
		t.Fatalf("head = %q", s)
	}
	if !strings.Contains(s, "Content-Length: 6144") || !strings.Contains(s, "Connection: close") {
		t.Fatalf("head = %q", s)
	}
	if ResponseSize(StatusOK, 6144) != len(head)+6144 {
		t.Fatal("ResponseSize mismatch")
	}
	if !strings.Contains(string(ResponseHeadVersion(StatusNotFound, 0, false, false)), "404 Not Found") {
		t.Fatal("404 reason phrase missing")
	}
	if !strings.Contains(string(ResponseHeadVersion(StatusBadReq, 0, false, false)), "400 Bad Request") {
		t.Fatal("400 reason phrase missing")
	}
	if !strings.Contains(string(ResponseHeadVersion(599, 0, false, false)), "599 Unknown") {
		t.Fatal("unknown status handling missing")
	}
}

func TestContentStore(t *testing.T) {
	cs := DefaultContentStore()
	size, ok := cs.Lookup(DefaultDocumentPath)
	if !ok || size != DefaultDocumentSize {
		t.Fatalf("default document: %d %v", size, ok)
	}
	if _, ok := cs.Lookup("/missing.html"); ok {
		t.Fatal("missing document found")
	}
	if cs.Len() < 4 {
		t.Fatalf("Len = %d", cs.Len())
	}
	cs.Add("/neg.html", -5)
	if size, _ := cs.Lookup("/neg.html"); size != 0 {
		t.Fatalf("negative size not clamped: %d", size)
	}
}

// Property: any well-formed GET request produced by FormatRequest parses back
// to the same path, regardless of how it is split into feed chunks.
func TestFormatParseRoundTripProperty(t *testing.T) {
	f := func(pathSeed uint16, split uint8) bool {
		path := "/doc" + strings.Repeat("x", int(pathSeed%32)) + ".html"
		raw := FormatRequest(path)
		cut := int(split) % len(raw)
		p := NewParser()
		if cut > 0 {
			if complete, err := p.Feed(raw[:cut]); err != nil || (complete && cut < len(raw)-1) {
				// Completing early is only possible if the cut is after the
				// terminator, which cannot happen for cut < len-1.
				if err != nil {
					return false
				}
			}
		}
		complete, err := p.Feed(raw[cut:])
		if err != nil || !complete {
			return false
		}
		return p.Request().Path == path
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestResponseSizeMatchesFormattedHead pins the arithmetic ResponseSize to
// the formatted header it replaced: the two must never drift, because the
// servers charge write costs by the computed size while tests and the wire
// model measure the formatted bytes.
func TestResponseSizeMatchesFormattedHead(t *testing.T) {
	codes := []int{StatusOK, StatusNotFound, StatusBadReq, 999, 1}
	lengths := []int{0, 1, 9, 10, 99, 512, 6144, 128 * 1024, 1<<20 - 1}
	for _, code := range codes {
		for _, n := range lengths {
			want := len(ResponseHeadVersion(code, n, false, false)) + n
			if got := ResponseSize(code, n); got != want {
				t.Fatalf("ResponseSize(%d, %d) = %d, formatted head gives %d", code, n, got, want)
			}
		}
	}
}

// TestResponseSizeVersionMatchesFormattedHead pins the keep-alive variant of
// the arithmetic size to its formatted head for every version/disposition
// combination, including that the version token never changes the size.
func TestResponseSizeVersionMatchesFormattedHead(t *testing.T) {
	codes := []int{StatusOK, StatusNotFound, StatusBadReq, 999}
	lengths := []int{0, 9, 512, 6144, 128 * 1024}
	for _, code := range codes {
		for _, n := range lengths {
			for _, http11 := range []bool{false, true} {
				for _, keep := range []bool{false, true} {
					want := len(ResponseHeadVersion(code, n, http11, keep)) + n
					if got := ResponseSizeVersion(code, n, keep); got != want {
						t.Fatalf("ResponseSizeVersion(%d, %d, %v) = %d, head(http11=%v) gives %d",
							code, n, keep, got, http11, want)
					}
				}
			}
		}
	}
	// The legacy HTTP/1.0 head is bytes written before the refactor.
	if string(ResponseHeadVersion(StatusOK, 6144, false, false)) != "HTTP/1.0 200 OK\r\nServer: thttpd-sim/2.16\r\nContent-Type: text/html\r\nContent-Length: 6144\r\nConnection: close\r\n\r\n" {
		t.Fatalf("legacy head drifted: %q", ResponseHeadVersion(StatusOK, 6144, false, false))
	}
}

// TestKeepAliveNegotiation covers the version-dependent Connection defaults
// field by field: the kept Connection value and the KeepAlive it implies.
func TestKeepAliveNegotiation(t *testing.T) {
	cases := []struct {
		name string
		raw  string
		conn string
		keep bool
	}{
		{"1.0/none", "GET / HTTP/1.0\r\nHost: h\r\n\r\n", "", false},
		{"1.0/close", "GET / HTTP/1.0\r\nConnection: close\r\n\r\n", "close", false},
		{"1.0/keep-alive", "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", "keep-alive", true},
		{"1.1/none", "GET / HTTP/1.1\r\nHost: h\r\n\r\n", "", true},
		{"1.1/close", "GET / HTTP/1.1\r\nConnection: close\r\n\r\n", "close", false},
		{"1.1/keep-alive", "GET / HTTP/1.1\r\nConnection: keep-alive\r\n\r\n", "keep-alive", true},
		{"1.1/Close", "GET / HTTP/1.1\r\nConnection: Close\r\n\r\n", "Close", false},
		{"1.0/Keep-Alive", "GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n", "Keep-Alive", true},
		{"lower-case-name", "GET / HTTP/1.0\r\nconnection: keep-alive\r\n\r\n", "keep-alive", true},
		{"padded-value", "GET / HTTP/1.1\r\nConnection:   close  \r\n\r\n", "close", false},
		{"last-line-wins/close", "GET / HTTP/1.1\r\nConnection: keep-alive\r\nHost: h\r\nConnection: close\r\n\r\n", "close", false},
		{"last-line-wins/keep-alive", "GET / HTTP/1.0\r\nConnection: close\r\nConnection: keep-alive\r\n\r\n", "keep-alive", true},
		{"formatted-1.0", string(FormatRequest("/index.html")), "", false},
		{"formatted-1.1", string(FormatRequest11("/index.html", false)), "", true},
		{"formatted-1.1-close", string(FormatRequest11("/index.html", true)), "close", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := NewParser()
			complete, err := p.Feed([]byte(c.raw))
			if err != nil || !complete {
				t.Fatalf("complete=%v err=%v", complete, err)
			}
			req := p.Request()
			if req.Connection != c.conn {
				t.Errorf("Connection = %q, want %q", req.Connection, c.conn)
			}
			if got := req.KeepAlive(); got != c.keep {
				t.Errorf("KeepAlive = %v, want %v", got, c.keep)
			}
		})
	}
}

// TestConnectionNotInherited: a pipelined request without a Connection
// header must not inherit the previous request's value, neither after
// Consume nor after Reset.
func TestConnectionNotInherited(t *testing.T) {
	first := "GET / HTTP/1.1\r\nConnection: close\r\n\r\n"
	second := "GET /small.html HTTP/1.1\r\nHost: h\r\n\r\n"
	p := NewParser()
	if complete, err := p.Feed([]byte(first + second)); err != nil || !complete {
		t.Fatalf("Feed: complete=%v err=%v", complete, err)
	}
	if req := p.Request(); req.Connection != "close" || req.KeepAlive() {
		t.Fatalf("first request: Connection = %q, KeepAlive = %v", req.Connection, req.KeepAlive())
	}
	if complete, err := p.Consume(); err != nil || !complete {
		t.Fatalf("Consume: complete=%v err=%v", complete, err)
	}
	if req := p.Request(); req.Path != "/small.html" || req.Connection != "" || !req.KeepAlive() {
		t.Fatalf("second request after Consume: %+v, KeepAlive = %v", req, req.KeepAlive())
	}

	p.Reset()
	if _, err := p.Feed([]byte(first)); err != nil {
		t.Fatal(err)
	}
	p.Reset()
	if complete, err := p.Feed([]byte(second)); err != nil || !complete {
		t.Fatalf("Feed after Reset: complete=%v err=%v", complete, err)
	}
	if req := p.Request(); req.Connection != "" || !req.KeepAlive() {
		t.Fatalf("request after Reset: Connection = %q, KeepAlive = %v", req.Connection, req.KeepAlive())
	}
}

// TestParserPipelinedRequests feeds three back-to-back requests in one chunk
// and walks them with Consume.
func TestParserPipelinedRequests(t *testing.T) {
	paths := []string{"/index.html", "/small.html", "/large.html"}
	var raw []byte
	for i, path := range paths {
		raw = append(raw, FormatRequest11(path, i == len(paths)-1)...)
	}
	p := NewParser()
	complete, err := p.Feed(raw)
	if err != nil || !complete {
		t.Fatalf("Feed: complete=%v err=%v", complete, err)
	}
	for i, path := range paths {
		if p.Request().Path != path {
			t.Fatalf("request %d: path = %q, want %q", i, p.Request().Path, path)
		}
		wantKeep := i < len(paths)-1
		if p.Request().KeepAlive() != wantKeep {
			t.Fatalf("request %d: KeepAlive = %v", i, p.Request().KeepAlive())
		}
		complete, err = p.Consume()
		if err != nil {
			t.Fatalf("Consume %d: %v", i, err)
		}
		if wantMore := i < len(paths)-1; complete != wantMore {
			t.Fatalf("Consume %d: complete=%v, want %v", i, complete, wantMore)
		}
	}
	if len(p.buf) != 0 {
		t.Fatalf("Buffered = %d after draining", len(p.buf))
	}
	// Consume on an empty, incomplete parser is a no-op.
	if complete, err := p.Consume(); complete || err != nil {
		t.Fatalf("idle Consume: %v %v", complete, err)
	}
}

// TestParserPipelineSplitAcrossFeeds splits a two-request pipeline so the
// second request's bytes straddle the first's completion: some arrive with
// request one (retained past the terminator), the rest arrive only after
// Consume.
func TestParserPipelineSplitAcrossFeeds(t *testing.T) {
	first := FormatRequest11("/index.html", false)
	second := FormatRequest11("/small.html", false)
	both := append(append([]byte{}, first...), second...)
	for cut := len(first); cut < len(both); cut++ {
		p := NewParser()
		complete, err := p.Feed(both[:cut])
		if err != nil || !complete {
			t.Fatalf("cut %d: first request not complete (%v, %v)", cut, complete, err)
		}
		if p.Request().Path != "/index.html" {
			t.Fatalf("cut %d: path = %q", cut, p.Request().Path)
		}
		complete, err = p.Consume()
		if err != nil {
			t.Fatalf("cut %d: Consume: %v", cut, err)
		}
		if complete {
			t.Fatalf("cut %d: second request complete early", cut)
		}
		complete, err = p.Feed(both[cut:])
		if err != nil || !complete {
			t.Fatalf("cut %d: second request not complete (%v, %v)", cut, complete, err)
		}
		if p.Request().Path != "/small.html" || !p.Request().KeepAlive() {
			t.Fatalf("cut %d: second request = %+v", cut, p.Request())
		}
	}
}

// TestParserReuse drives two full requests through one parser with a Reset
// between them, the lifecycle a pooled connection record performs.
func TestParserReuse(t *testing.T) {
	p := NewParser()
	for i, path := range []string{"/index.html", "/large.html"} {
		complete, err := p.Feed(FormatRequest(path))
		if err != nil || !complete {
			t.Fatalf("round %d: complete=%v err=%v", i, complete, err)
		}
		req := p.Request()
		if req.Path != path || req.Version != "HTTP/1.0" {
			t.Fatalf("round %d: req = %+v", i, req)
		}
		if req.Connection != "" {
			t.Fatalf("round %d: Connection = %q", i, req.Connection)
		}
		p.Reset()
		if p.complete || len(p.buf) != 0 || p.Request() != nil || p.err != nil {
			t.Fatalf("round %d: Reset left state behind", i)
		}
	}
}
