package webserver

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// Property: the message parser never panics on arbitrary bytes — it either
// parses, waits for more input, or reports ErrMalformed.
func TestParserNeverPanicsProperty(t *testing.T) {
	prop := func(chunks [][]byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		p := &parser{
			onRequest:  func(*Request) {},
			onResponse: func(*Response) {},
			onError:    func(error) {},
		}
		for _, c := range chunks {
			p.feed(c)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: a request survives arbitrary re-chunking of its wire bytes.
func TestParserChunkingInvariance(t *testing.T) {
	req := &Request{
		Method:  "POST",
		Path:    "/pay/authorize",
		Query:   map[string]string{"a": "b c", "x": "1&2"},
		Headers: map[string]string{"content-type": TypeJSON, "x-token": "t"},
		Body:    []byte(`{"amount": 12, "note": "\r\n\r\n tricky"}`),
	}
	wire := encodeRequest(req)
	prop := func(cuts []uint16) bool {
		var got *Request
		p := &parser{onRequest: func(r *Request) { got = r }}
		rest := wire
		for _, c := range cuts {
			if len(rest) == 0 {
				break
			}
			n := int(c) % len(rest)
			if n == 0 {
				n = 1
			}
			p.feed(rest[:n])
			rest = rest[n:]
		}
		p.feed(rest)
		if got == nil {
			return false
		}
		return got.Method == "POST" && got.Path == "/pay/authorize" &&
			got.Query["a"] == "b c" && got.Query["x"] == "1&2" &&
			got.Header("x-token") == "t" && string(got.Body) == string(req.Body)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Adversarial corpus for the HTTP-like parser.
func TestParserAdversarialCorpus(t *testing.T) {
	corpus := []string{
		"",
		"\r\n\r\n",
		"GET\r\n\r\n",
		"GET / HTTP/1.0\r\nbroken header\r\n\r\n",
		"GET / HTTP/1.0\r\ncontent-length: -5\r\n\r\n",
		"GET / HTTP/1.0\r\ncontent-length: notanumber\r\n\r\nx",
		"HTTP/1.0 abc OK\r\n\r\n",
		"HTTP/1.0\r\n\r\n",
		strings.Repeat("A", 100_000) + "\r\n\r\n",
		"GET /x?==&&= HTTP/1.0\r\n\r\n",
		"GET /%zz%%1 HTTP/1.0\r\n\r\n",
		"POST / HTTP/1.0\r\ncontent-length: 3\r\n\r\nab", // short body: waits
	}
	for _, src := range corpus {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("panic on %q: %v", src, r)
				}
			}()
			p := &parser{onRequest: func(*Request) {}, onResponse: func(*Response) {}, onError: func(error) {}}
			p.feed([]byte(src))
		}()
	}
}

// Pipelined messages in one buffer must all parse.
func TestParserPipelinedMessages(t *testing.T) {
	var wire []byte
	for i := 0; i < 3; i++ {
		wire = append(wire, encodeRequest(&Request{Method: "GET", Path: "/a"})...)
	}
	n := 0
	p := &parser{onRequest: func(*Request) { n++ }}
	p.feed(wire)
	if n != 3 {
		t.Errorf("parsed %d pipelined requests, want 3", n)
	}
}

// parseEvent is one callback a parser fired, with the index of the feed
// call it fired on.
type parseEvent struct {
	Feed    int
	Kind    string // "request", "response" or "error"
	Method  string
	Status  int
	Path    string
	Query   map[string]string
	Headers map[string]string
	Body    []byte
}

// runParser feeds chunks to a fresh parser (or to the reference parser)
// with every callback installed, and appends the events it fires to
// events. A panic of the reference parser ends the run with a "panic"
// event on the feed call that raised it.
func runParser(ref bool, chunks [][]byte, events *[]parseEvent) {
	feedNo := 0
	if ref {
		defer func() {
			if recover() != nil {
				*events = append(*events, parseEvent{Feed: feedNo, Kind: "panic"})
			}
		}()
	}
	onRequest := func(r *Request) {
		*events = append(*events, parseEvent{Feed: feedNo, Kind: "request", Method: r.Method,
			Path: r.Path, Query: r.Query, Headers: r.Headers, Body: r.Body})
	}
	onResponse := func(r *Response) {
		*events = append(*events, parseEvent{Feed: feedNo, Kind: "response", Status: r.Status,
			Headers: r.Headers, Body: r.Body})
	}
	onError := func(err error) {
		*events = append(*events, parseEvent{Feed: feedNo, Kind: "error"})
	}
	feed := (&parser{onRequest: onRequest, onResponse: onResponse, onError: onError}).feed
	if ref {
		feed = (&refParser{onRequest: onRequest, onResponse: onResponse, onError: onError}).feed
	}
	for i, c := range chunks {
		feedNo = i
		feed(c)
	}
}

// checkParser asserts that the parser fires exactly the reference
// parser's events, on the same feed calls, for this chunking, and that
// its events up to the first error do not depend on the chunking. It
// reports false when the input is excluded from the comparison because
// it panics the reference parser (a content-length whose message total
// overflows an int); the parser must then fire the reference's events
// and fail the panicking feed call with ErrMalformed.
func checkParser(t *testing.T, chunks [][]byte) bool {
	t.Helper()
	var got, want []parseEvent
	runParser(false, chunks, &got)
	runParser(true, chunks, &want)
	if n := len(want); n > 0 && want[n-1].Kind == "panic" {
		want[n-1].Kind = "error"
		if len(got) < n || !reflect.DeepEqual(got[:n], want) {
			t.Fatalf("chunks %q: reference panicked; parser events %+v, want %+v", chunks, got, want)
		}
		return false
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chunks %q:\nparser events    %+v\nreference events %+v", chunks, got, want)
	}

	var whole []parseEvent
	runParser(false, [][]byte{bytes.Join(chunks, nil)}, &whole)
	if !reflect.DeepEqual(untilError(got), untilError(whole)) {
		t.Fatalf("chunks %q: events depend on chunking:\nchunked %+v\nwhole   %+v", chunks, got, whole)
	}
	return true
}

// untilError returns the events up to and including the first error,
// with feed indices dropped. A failure discards the buffered bytes, so
// what follows it depends on where the chunks were cut.
func untilError(evs []parseEvent) []parseEvent {
	out := make([]parseEvent, 0, len(evs))
	for _, e := range evs {
		e.Feed = 0
		out = append(out, e)
		if e.Kind == "error" {
			break
		}
	}
	return out
}

// randomToken is a short string drawn from an alphabet that includes the
// bytes the wire form escapes or trims.
func randomToken(rng *rand.Rand, maxLen int) string {
	const alphabet = "abcXYZ019 -_.~&=%+?#:/\x01\xe9\t"
	b := make([]byte, rng.Intn(maxLen+1))
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

func randomBody(rng *rand.Rand) []byte {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return []byte("a\r\n\r\nb\r\n\r\n")
	default:
		b := make([]byte, rng.Intn(3000))
		for i := range b {
			b[i] = "xy\r\n:"[rng.Intn(5)]
		}
		return b
	}
}

// randomStream encodes one to four well-formed requests and responses
// back to back.
func randomStream(rng *rand.Rand) []byte {
	var wire []byte
	for n := 1 + rng.Intn(4); n > 0; n-- {
		headers := map[string]string{}
		for h := rng.Intn(4); h > 0; h-- {
			headers["x-"+strings.ToLower(randomToken(rng, 4))] = strings.TrimSpace(randomToken(rng, 8))
		}
		if rng.Intn(2) == 0 {
			query := map[string]string{}
			for q := rng.Intn(4); q > 0; q-- {
				query[randomToken(rng, 5)] = randomToken(rng, 8)
			}
			method := []string{"GET", "POST", "put"}[rng.Intn(3)]
			wire = append(wire, encodeRequest(&Request{Method: method, Path: "/" + strings.ToLower(randomToken(rng, 6)),
				Query: query, Headers: headers, Body: randomBody(rng)})...)
		} else {
			status := []int{200, 302, 404, 503, 299}[rng.Intn(5)]
			wire = append(wire, encodeResponse(&Response{Status: status, Headers: headers, Body: randomBody(rng)})...)
		}
	}
	return wire
}

// randomGarbage strings together loose fragments and malformed
// messages: bad first lines, header lines without a colon, negative and
// unparseable lengths, and bodies shorter or longer than announced.
func randomGarbage(rng *rand.Rand) []byte {
	pick := func(opts ...string) string { return opts[rng.Intn(len(opts))] }
	var b []byte
	for n := rng.Intn(6); n >= 0; n-- {
		if rng.Intn(3) == 0 {
			for k := rng.Intn(10); k > 0; k-- {
				if rng.Intn(4) == 0 {
					b = append(b, byte(rng.Intn(256)))
				} else {
					b = append(b, pick("\r", "\n", "\r\n", "\r\n\r\n", ":", " ", "HTTP/", "content-length: ", "7", "x")...)
				}
			}
			continue
		}
		b = append(b, pick("", "HTTP/1.0", "HTTP/1.0 abc OK", "HTTP/1.1 200", "GET /", "GET /a?b=%zz HTTP/1.0",
			"post /p HTTP/9", "A B C", " ")...)
		for h := rng.Intn(3); h > 0; h-- {
			b = append(b, pick("\r\nx: y", "\r\nbroken", "\r\n: ", "\r\nContent-Length : 2")...)
		}
		if rng.Intn(4) != 0 {
			b = append(b, "\r\ncontent-length: "+pick("-3", "0", "4", "12", "x", "+2", " 5 ")...)
		}
		b = append(b, "\r\n\r\n"...)
		b = append(b, pick("", "abcd", "ab", "\r\n\r\n", "0123456789abcdef")...)
	}
	return b
}

// randomChunks cuts wire at random points, sometimes into empty chunks.
func randomChunks(rng *rand.Rand, wire []byte) [][]byte {
	var chunks [][]byte
	for len(wire) > 0 && rng.Intn(12) != 0 {
		n := rng.Intn(min(len(wire), 1500) + 1)
		chunks = append(chunks, wire[:n])
		wire = wire[n:]
	}
	return append(chunks, wire)
}

// Differential: on random well-formed streams (pipelined messages, empty
// bodies, bodies containing the head terminator), on corrupted copies of
// them and on garbage, all re-chunked at random, the parser fires the
// same callbacks on the same feed calls as the reference parser.
func TestParserMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	excluded := 0
	for i := 0; i < 3000; i++ {
		var wire []byte
		switch i % 3 {
		case 0:
			wire = randomStream(rng)
		case 1:
			wire = randomStream(rng)
			for n := 1 + rng.Intn(3); n > 0; n-- {
				wire[rng.Intn(len(wire))] = "\r\n:0 9-x"[rng.Intn(8)]
			}
		case 2:
			wire = randomGarbage(rng)
		}
		if !checkParser(t, randomChunks(rng, wire)) {
			excluded++
		}
	}
	for _, clen := range []string{"9223372036854775807", "9223372036854775790"} {
		wire := []byte("GET /a HTTP/1.0\r\n\r\nHTTP/1.0 200 OK\r\ncontent-length: " + clen + "\r\n\r\nabc")
		if checkParser(t, randomChunks(rng, wire)) {
			t.Errorf("content-length %s did not panic the reference parser", clen)
		}
		excluded++
	}
	t.Logf("%d inputs excluded for panicking the reference parser", excluded)
}

// FuzzParser feeds arbitrary bytes, cut into chunks of the lengths given
// by cuts (a zero is an empty feed), and checks the parser against the
// reference parser and against the same bytes fed whole.
func FuzzParser(f *testing.F) {
	f.Fuzz(func(t *testing.T, wire, cuts []byte) {
		var chunks [][]byte
		for _, c := range cuts {
			n := min(int(c), len(wire))
			chunks = append(chunks, wire[:n])
			wire = wire[n:]
		}
		checkParser(t, append(chunks, wire))
	})
}
