package webserver

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// The wire form is pinned byte for byte: headers sorted by name,
// content-length always last and always present, query parameters
// sorted and escaped, and the body appended verbatim.
func TestEncodeRequestGolden(t *testing.T) {
	cases := []struct {
		name string
		req  *Request
		want string
	}{
		{
			name: "bare",
			req:  &Request{Method: "GET", Path: "/a"},
			want: "GET /a HTTP/1.0\r\ncontent-length: 0\r\n\r\n",
		},
		{
			name: "query-headers-body",
			req: &Request{
				Method: "POST",
				Path:   "/pay/authorize",
				Query:  map[string]string{"x": "1&2", "a": "b c", "k=?": "50%+#\x01\xe9~"},
				Headers: map[string]string{
					"content-type":   TypeJSON,
					"X-Token":        "t",
					"Content-Length": "999",
					"accept":         "*/*",
				},
				Body: []byte("{\"n\": 1}\r\n\r\ntail"),
			},
			want: "POST /pay/authorize?a=b+c&k%3D%3F=50%25%2B%23%01%E9~&x=1%262 HTTP/1.0\r\n" +
				"X-Token: t\r\naccept: */*\r\ncontent-type: application/json\r\n" +
				"content-length: 16\r\n\r\n{\"n\": 1}\r\n\r\ntail",
		},
		{
			name: "empty-query-map",
			req:  &Request{Method: "get", Path: "/q", Query: map[string]string{}, Headers: map[string]string{}},
			want: "get /q HTTP/1.0\r\ncontent-length: 0\r\n\r\n",
		},
		{
			name: "empty-values",
			req:  &Request{Method: "GET", Path: "/", Query: map[string]string{"": "", "z": ""}, Headers: map[string]string{"x-e": ""}},
			want: "GET /?=&z= HTTP/1.0\r\nx-e: \r\ncontent-length: 0\r\n\r\n",
		},
	}
	for _, c := range cases {
		if got := string(EncodeRequest(c.req)); got != c.want {
			t.Errorf("%s:\n got %q\nwant %q", c.name, got, c.want)
		}
	}
}

func TestEncodeResponseGolden(t *testing.T) {
	cases := []struct {
		name string
		resp *Response
		want string
	}{
		{
			name: "text",
			resp: Text("hello"),
			want: "HTTP/1.0 200 OK\r\ncontent-type: text/plain\r\ncontent-length: 5\r\n\r\nhello",
		},
		{
			name: "empty-body",
			resp: &Response{Status: 404, Headers: map[string]string{"b": "2", "a": "1"}},
			want: "HTTP/1.0 404 Not Found\r\na: 1\r\nb: 2\r\ncontent-length: 0\r\n\r\n",
		},
		{
			name: "unknown-status-stale-length",
			resp: &Response{Status: 299, Headers: map[string]string{"CONTENT-LENGTH": "7"}, Body: []byte("ab")},
			want: "HTTP/1.0 299 Status\r\ncontent-length: 2\r\n\r\nab",
		},
		{
			name: "nil-headers",
			resp: &Response{Status: 503},
			want: "HTTP/1.0 503 Service Unavailable\r\ncontent-length: 0\r\n\r\n",
		},
	}
	for _, c := range cases {
		if got := string(EncodeResponse(c.resp)); got != c.want {
			t.Errorf("%s:\n got %q\nwant %q", c.name, got, c.want)
		}
	}
}

// A content-length whose message total does not fit in an int is
// malformed. It used to wrap the total negative and panic on the body
// slice.
func TestParserContentLengthOverflow(t *testing.T) {
	for _, clen := range []string{"9223372036854775807", "9223372036854775800", "9223372036854775770"} {
		head := "content-length: " + clen + "\r\n\r\nabc"
		if _, err := ParseResponse([]byte("HTTP/1.0 200 OK\r\n" + head)); !errors.Is(err, ErrMalformed) {
			t.Errorf("response with content-length %s: err = %v, want ErrMalformed", clen, err)
		}
		if _, err := ParseRequest([]byte("POST /p HTTP/1.0\r\n" + head)); !errors.Is(err, ErrMalformed) {
			t.Errorf("request with content-length %s: err = %v, want ErrMalformed", clen, err)
		}
	}
	// A huge length that still fits waits for its body without
	// allocating for it.
	p := &parser{onResponse: func(*Response) { t.Error("parsed a message with a missing body") }, onError: func(err error) { t.Error(err) }}
	p.feed([]byte("HTTP/1.0 200 OK\r\ncontent-length: 9000000000000000000\r\n\r\nabc"))
	if cap(p.buf) > maxBufHint {
		t.Errorf("receive buffer cap %d, want at most %d", cap(p.buf), maxBufHint)
	}
}

func encodedBody(size int) []byte {
	return EncodeResponse(NewResponse(200, TypeBytes, []byte(strings.Repeat("x", size))))
}

// feedChunks feeds wire to a fresh response parser in segment-sized
// chunks, the way a download arrives over mtcp.
func feedChunks(wire []byte) *Response {
	var got *Response
	p := &parser{onResponse: func(r *Response) { got = r }}
	for off := 0; off < len(wire); off += 1460 {
		p.feed(wire[off:min(off+1460, len(wire))])
	}
	return got
}

func BenchmarkParserFeed(b *testing.B) {
	for _, kib := range []int{4, 64, 256} {
		b.Run(fmt.Sprintf("%dKiB", kib), func(b *testing.B) {
			wire := encodedBody(kib << 10)
			b.ReportAllocs()
			b.SetBytes(int64(len(wire)))
			for i := 0; i < b.N; i++ {
				if feedChunks(wire) == nil {
					b.Fatal("no response")
				}
			}
		})
	}
}

// Framing is linear: a message costs the same number of allocations
// whatever its size, and allocates at most twice its wire size.
func TestParserFeedLinear(t *testing.T) {
	allocs := map[int]float64{}
	for _, size := range []int{4 << 10, 256 << 10} {
		wire := encodedBody(size)
		if r := feedChunks(wire); r == nil || len(r.Body) != size {
			t.Fatalf("%d-byte body did not parse", size)
		}
		allocs[size] = testing.AllocsPerRun(20, func() { feedChunks(wire) })
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			feedChunks(wire)
		}
		runtime.ReadMemStats(&after)
		perMsg := float64(after.TotalAlloc-before.TotalAlloc) / runs
		if perMsg > 2*float64(len(wire)) {
			t.Errorf("%d-byte body: %.0f bytes allocated per message, want at most 2x the %d-byte wire size",
				size, perMsg, len(wire))
		}
	}
	if allocs[4<<10] != allocs[256<<10] {
		t.Errorf("allocs per message: %v at 4 KiB, %v at 256 KiB; want equal", allocs[4<<10], allocs[256<<10])
	}
}
