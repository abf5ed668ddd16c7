package httpsim

import (
	"math/rand"
	"strings"
	"testing"
)

// Request lines and header lines the memo test draws heads from. The pools
// are small so one parser meets the same head again and again, and the same
// request line under different headers; a few entries are malformed.
var (
	memoLines = []string{
		"GET /index.html HTTP/1.0",
		"GET /index.html HTTP/1.1",
		"GET /small.html HTTP/1.1",
		"HEAD /doc HTTP/1.0",
		"GET index.html HTTP/1.0", // path without a slash
		"GET /index.html",         // two parts
		"GET / HTTP/1.1 trailing", // four parts
		"GET /index.html FTP/1.0", // not HTTP
	}
	memoHeaders = []string{
		"Host: server.citi.umich.edu",
		"User-Agent: httperf-sim/0.8",
		"Connection: close",
		"Connection: keep-alive",
		"Connection: Close",
		"connection:  Keep-Alive ",
		"X-Custom: v",
		"NoColonHere",  // malformed
		": empty-name", // malformed
	}
)

// randomHead renders a request head with its terminator. Malformed lines come
// up rarely enough that most heads parse.
func randomHead(rng *rand.Rand) string {
	var b strings.Builder
	if rng.Intn(8) == 0 {
		b.WriteString(memoLines[rng.Intn(len(memoLines))])
	} else {
		b.WriteString(memoLines[rng.Intn(4)])
	}
	for n := rng.Intn(4); n > 0; n-- {
		h := memoHeaders[rng.Intn(len(memoHeaders))]
		for rng.Intn(10) < 9 && (h == "NoColonHere" || h == ": empty-name") {
			h = memoHeaders[rng.Intn(len(memoHeaders))]
		}
		b.WriteString("\r\n" + h)
	}
	b.WriteString("\r\n\r\n")
	return b.String()
}

// TestMemoMatchesFreshParse runs random connections through one reused
// parser, with Reset between connections and Consume between the requests
// of a pipelined pair, and through a fresh parser per request, fed the same
// chunks. A fresh parser has an empty memo, so it always parses. At every
// step the two must report the same (complete, err) and, once complete, the
// same Request.
func TestMemoMatchesFreshParse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	reused := NewParser()
	hits, parses := 0, 0 // completed requests whose head repeats the last one, all completed requests
	lastHead, prevFirst := "", ""
	for conn := 0; conn < 3000; conn++ {
		// A third of the connections resend the previous connection's first
		// head, as a benchmark client does; a malformed head then meets
		// itself again too.
		stream := randomHead(rng)
		if conn > 0 && rng.Intn(3) == 0 {
			stream = prevFirst
		}
		prevFirst = stream
		if rng.Intn(3) == 0 {
			stream += randomHead(rng) // a pipelined pair
		}
		// Split the stream into up to four chunks at random cuts.
		var chunks []string
		for rest := stream; len(rest) > 0; {
			n := len(rest)
			if len(chunks) < 3 && rng.Intn(2) == 0 {
				n = 1 + rng.Intn(len(rest))
			}
			chunks, rest = append(chunks, rest[:n]), rest[n:]
		}

		ref := NewParser()
		fed := 0      // bytes of stream fed so far
		consumed := 0 // bytes of stream in requests already consumed
		step := func(what string, gotC bool, gotErr error, wantC bool, wantErr error) bool {
			t.Helper()
			if gotC != wantC || gotErr != wantErr {
				t.Fatalf("conn %d %s: reused (%v, %v), fresh (%v, %v); stream %q",
					conn, what, gotC, gotErr, wantC, wantErr, stream)
			}
			got, want := reused.Request(), ref.Request()
			if (got == nil) != (want == nil) || (got != nil && *got != *want) {
				t.Fatalf("conn %d %s: reused request %+v, fresh %+v; stream %q", conn, what, got, want, stream)
			}
			return gotErr == nil
		}
	chunksLoop:
		for _, c := range chunks {
			gotC, gotErr := reused.Feed([]byte(c))
			wantC, wantErr := ref.Feed([]byte(c))
			fed += len(c)
			if !step("Feed", gotC, gotErr, wantC, wantErr) {
				break
			}
			for gotC {
				// The next request starts after this one's terminator.
				head := stream[consumed : consumed+strings.Index(stream[consumed:], "\r\n\r\n")]
				if head == lastHead {
					hits++
				}
				lastHead = head
				parses++
				consumed += len(head) + 4
				gotC, gotErr = reused.Consume()
				ref = NewParser()
				wantC, wantErr = false, nil
				if fed > consumed {
					wantC, wantErr = ref.Feed([]byte(stream[consumed:fed]))
				}
				if !step("Consume", gotC, gotErr, wantC, wantErr) {
					break chunksLoop
				}
			}
		}
		reused.Reset()
	}
	if hits == 0 || hits == parses {
		t.Fatalf("memo hit %d of %d completed requests: the test needs both hits and misses", hits, parses)
	}
}

// TestConnectionTokensDoNotAllocate: the Connection spellings a client is
// likely to send are interned, so a parse that cannot take the memo (the two
// heads alternate) still allocates nothing once the parser has grown; and
// reading a Connection value, with or without a comma, allocates nothing.
func TestConnectionTokensDoNotAllocate(t *testing.T) {
	for _, conn := range []string{"", "close", "Keep-Alive", "close, TE", "TE, keep-alive"} {
		req := Request{Version: "HTTP/1.1", Connection: conn}
		if allocs := testing.AllocsPerRun(100, func() { req.KeepAlive() }); allocs != 0 {
			t.Fatalf("KeepAlive on Connection %q allocates %.1f, want 0", conn, allocs)
		}
	}
	heads := [][]byte{
		[]byte("GET /index.html HTTP/1.1\r\nConnection: Close\r\n\r\n"),
		[]byte("GET /index.html HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"),
	}
	p := NewParser()
	i := 0
	parse := func() {
		if complete, err := p.Feed(heads[i%2]); !complete || err != nil {
			t.Fatalf("Feed = %v, %v", complete, err)
		}
		if p.Request().KeepAlive() != (i%2 == 1) {
			t.Fatalf("head %d: KeepAlive = %v", i%2, p.Request().KeepAlive())
		}
		p.Reset()
		i++
	}
	parse()
	parse()
	if allocs := testing.AllocsPerRun(100, parse); allocs != 0 {
		t.Fatalf("alternating heads allocate %.1f per parse, want 0", allocs)
	}
}

// BenchmarkParseMiss times a parse the memo cannot serve: two distinct
// heads alternate, so every Feed runs parseHead.
func BenchmarkParseMiss(b *testing.B) {
	heads := [][]byte{
		FormatRequest11(DefaultDocumentPath, false),
		FormatRequest11("/small.html", false),
	}
	p := NewParser()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		complete, err := p.Feed(heads[i&1])
		if err != nil || !complete {
			b.Fatalf("Feed = %v, %v", complete, err)
		}
		p.Reset()
	}
}
