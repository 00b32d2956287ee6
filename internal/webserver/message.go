package webserver

import (
	"bytes"
	"errors"
	"math"
	"sort"
	"strconv"
	"strings"

	"mcommerce/internal/simnet"
)

// Common media types used for content negotiation across the system.
const (
	TypeHTML  = "text/html"
	TypeWML   = "text/vnd.wap.wml"
	TypeWMLC  = "application/vnd.wap.wmlc"
	TypeCHTML = "text/chtml"
	TypeJSON  = "application/json"
	TypeText  = "text/plain"
	TypeBytes = "application/octet-stream"
)

// ErrMalformed reports an unparseable message.
var ErrMalformed = errors.New("webserver: malformed message")

// Request is an HTTP/1.0-style request.
type Request struct {
	Method  string
	Path    string            // without query string
	Query   map[string]string // decoded query parameters
	Headers map[string]string // canonicalized to lower-case names
	Body    []byte
	// Remote is the requesting peer (filled in by the server).
	Remote simnet.Addr
}

// Header returns a header value by case-insensitive name.
func (r *Request) Header(name string) string { return r.Headers[strings.ToLower(name)] }

// Accepts reports whether the request's Accept header admits the media
// type. An absent Accept header accepts everything.
func (r *Request) Accepts(mediaType string) bool {
	acc := r.Header("Accept")
	if acc == "" {
		return true
	}
	for _, part := range strings.Split(acc, ",") {
		part = strings.TrimSpace(part)
		if i := strings.IndexByte(part, ';'); i >= 0 {
			part = strings.TrimSpace(part[:i])
		}
		if part == "*/*" || part == mediaType {
			return true
		}
		if strings.HasSuffix(part, "/*") && strings.HasPrefix(mediaType, strings.TrimSuffix(part, "*")) {
			return true
		}
	}
	return false
}

// Response is an HTTP/1.0-style response.
type Response struct {
	Status  int
	Headers map[string]string
	Body    []byte
}

// Header returns a response header by case-insensitive name.
func (r *Response) Header(name string) string { return r.Headers[strings.ToLower(name)] }

// NewResponse builds a response with a content type.
func NewResponse(status int, contentType string, body []byte) *Response {
	return &Response{
		Status:  status,
		Headers: map[string]string{"content-type": contentType},
		Body:    body,
	}
}

// Text returns a 200 text/plain response.
func Text(body string) *Response { return NewResponse(200, TypeText, []byte(body)) }

// HTML returns a 200 text/html response.
func HTML(body string) *Response { return NewResponse(200, TypeHTML, []byte(body)) }

// Error returns an error response with a plain-text body.
func Error(status int, msg string) *Response { return NewResponse(status, TypeText, []byte(msg)) }

// statusText maps the status codes the system uses.
func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 302:
		return "Found"
	case 400:
		return "Bad Request"
	case 401:
		return "Unauthorized"
	case 403:
		return "Forbidden"
	case 404:
		return "Not Found"
	case 405:
		return "Method Not Allowed"
	case 409:
		return "Conflict"
	case 500:
		return "Internal Server Error"
	case 502:
		return "Bad Gateway"
	case 503:
		return "Service Unavailable"
	default:
		return "Status"
	}
}

// EncodeRequest serializes a request to its wire form.
func EncodeRequest(r *Request) []byte {
	size := len(r.Method) + len(r.Path) + len("  HTTP/1.0\r\n")
	var qkeys []string
	if len(r.Query) > 0 {
		qkeys = make([]string, 0, len(r.Query))
		for k, v := range r.Query {
			qkeys = append(qkeys, k)
			size += len("&=") + 3*(len(k)+len(v)) // each byte escapes to at most %XX
		}
		sort.Strings(qkeys)
	}
	hkeys, hsize := headerKeys(r.Headers)
	b := make([]byte, 0, size+hsize+len(r.Body))
	b = append(b, r.Method...)
	b = append(b, ' ')
	b = append(b, r.Path...)
	for i, k := range qkeys {
		if i == 0 {
			b = append(b, '?')
		} else {
			b = append(b, '&')
		}
		b = appendEscaped(b, k)
		b = append(b, '=')
		b = appendEscaped(b, r.Query[k])
	}
	b = append(b, " HTTP/1.0\r\n"...)
	b = appendHeaders(b, r.Headers, hkeys, len(r.Body))
	return append(b, r.Body...)
}

// EncodeResponse serializes a response to its wire form.
func EncodeResponse(r *Response) []byte {
	text := statusText(r.Status)
	hkeys, hsize := headerKeys(r.Headers)
	b := make([]byte, 0, len("HTTP/1.0  \r\n")+maxIntDigits+len(text)+hsize+len(r.Body))
	b = append(b, "HTTP/1.0 "...)
	b = strconv.AppendInt(b, int64(r.Status), 10)
	b = append(b, ' ')
	b = append(b, text...)
	b = append(b, "\r\n"...)
	b = appendHeaders(b, r.Headers, hkeys, len(r.Body))
	return append(b, r.Body...)
}

// maxIntDigits is the longest decimal form of an int, sign included.
const maxIntDigits = 20

// headerKeys returns the header names to write in wire order (sorted,
// content-length left out: appendHeaders writes it last, from the body)
// and the wire size of the whole header block.
func headerKeys(hs map[string]string) ([]string, int) {
	size := len("content-length: \r\n\r\n") + maxIntDigits
	keys := make([]string, 0, len(hs))
	for k, v := range hs {
		if strings.ToLower(k) == "content-length" {
			continue
		}
		keys = append(keys, k)
		size += len(k) + len(": \r\n") + len(v)
	}
	sort.Strings(keys)
	return keys, size
}

func appendHeaders(b []byte, hs map[string]string, keys []string, bodyLen int) []byte {
	for _, k := range keys {
		b = append(b, k...)
		b = append(b, ": "...)
		b = append(b, hs[k]...)
		b = append(b, "\r\n"...)
	}
	b = append(b, "content-length: "...)
	b = strconv.AppendInt(b, int64(bodyLen), 10)
	return append(b, "\r\n\r\n"...)
}

// ParseRequest parses a complete request from its wire form.
func ParseRequest(wire []byte) (*Request, error) {
	var out *Request
	var perr error
	p := &parser{
		onRequest: func(r *Request) { out = r },
		onError:   func(err error) { perr = err },
	}
	p.feed(wire)
	if perr != nil {
		return nil, perr
	}
	if out == nil {
		return nil, ErrMalformed
	}
	return out, nil
}

// ParseResponse parses a complete response from its wire form.
func ParseResponse(wire []byte) (*Response, error) {
	var out *Response
	var perr error
	p := &parser{
		onResponse: func(r *Response) { out = r },
		onError:    func(err error) { perr = err },
	}
	p.feed(wire)
	if perr != nil {
		return nil, perr
	}
	if out == nil {
		return nil, ErrMalformed
	}
	return out, nil
}

// maxBufHint caps the receive buffer the parser reserves from a
// message's content-length, so a hostile header cannot make it allocate
// more than this up front. Longer bodies grow the buffer as they arrive.
const maxBufHint = 1 << 20

var headEnd = []byte("\r\n\r\n")

// parser accumulates bytes and yields complete messages. It parses both
// requests and responses depending on which callback is installed. Each
// message's head is found and parsed once; after that the parser only
// waits for the buffer to reach the message's total length.
type parser struct {
	buf []byte
	// scan is where the search for the end of the head resumes.
	scan int
	// The parsed head of the current message: its first line, its
	// headers, the offset of its body in buf and its total length.
	// bodyAt is 0 until the head is complete.
	first   string
	headers map[string]string
	bodyAt  int
	total   int

	onRequest  func(*Request)
	onResponse func(*Response)
	onError    func(error)
}

func (p *parser) feed(b []byte) {
	p.buf = append(p.buf, b...)
	for p.tryParse() {
	}
}

func (p *parser) tryParse() bool {
	if p.bodyAt == 0 && !p.parseHead() {
		return false
	}
	if len(p.buf) < p.total {
		return false
	}
	var body []byte
	if p.total > p.bodyAt {
		body = p.buf[p.bodyAt:p.total:p.total]
	}
	first, headers := p.first, p.headers
	p.buf = p.buf[p.total:]
	p.reset()

	if strings.HasPrefix(first, "HTTP/") {
		// Response: HTTP/1.0 200 OK
		parts := strings.SplitN(first, " ", 3)
		if len(parts) < 2 {
			p.fail()
			return false
		}
		status, err := strconv.Atoi(parts[1])
		if err != nil {
			p.fail()
			return false
		}
		if p.onResponse != nil {
			p.onResponse(&Response{Status: status, Headers: headers, Body: body})
		}
		return true
	}
	// Request: GET /path?q=1 HTTP/1.0
	parts := strings.Split(first, " ")
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/") {
		p.fail()
		return false
	}
	path, query := splitQuery(parts[1])
	if p.onRequest != nil {
		p.onRequest(&Request{
			Method:  strings.ToUpper(parts[0]),
			Path:    path,
			Query:   query,
			Headers: headers,
			Body:    body,
		})
	}
	return true
}

// parseHead finds the end of the current message's head and parses its
// lines. It reports false while the head is incomplete and after failing
// a malformed head. The first line is validated only once the body is
// complete, in tryParse.
func (p *parser) parseHead() bool {
	i := bytes.Index(p.buf[p.scan:], headEnd)
	if i < 0 {
		p.scan = max(len(p.buf)-len(headEnd)+1, 0)
		return false
	}
	head := p.scan + i
	first, rest, more := strings.Cut(string(p.buf[:head]), "\r\n")
	headers := make(map[string]string)
	for more {
		var ln string
		ln, rest, more = strings.Cut(rest, "\r\n")
		name, value, ok := strings.Cut(ln, ":")
		if !ok {
			p.fail()
			return false
		}
		headers[strings.ToLower(strings.TrimSpace(name))] = strings.TrimSpace(value)
	}
	clen, _ := strconv.Atoi(headers["content-length"])
	clen = max(clen, 0)
	bodyAt := head + len(headEnd)
	if clen > math.MaxInt-bodyAt {
		p.fail()
		return false
	}
	p.first, p.headers, p.bodyAt, p.total = first, headers, bodyAt, bodyAt+clen
	if want := min(p.total, maxBufHint); cap(p.buf) < want {
		buf := make([]byte, len(p.buf), want)
		copy(buf, p.buf)
		p.buf = buf
	}
	return true
}

// reset forgets the current message's head.
func (p *parser) reset() {
	p.scan, p.first, p.headers, p.bodyAt, p.total = 0, "", nil, 0, 0
}

func (p *parser) fail() {
	p.buf = nil
	p.reset()
	if p.onError != nil {
		p.onError(ErrMalformed)
	}
}

func splitQuery(target string) (string, map[string]string) {
	i := strings.IndexByte(target, '?')
	if i < 0 {
		return target, nil
	}
	path := target[:i]
	q := make(map[string]string)
	for _, kv := range strings.Split(target[i+1:], "&") {
		if kv == "" {
			continue
		}
		j := strings.IndexByte(kv, '=')
		if j < 0 {
			q[unescapeQuery(kv)] = ""
			continue
		}
		q[unescapeQuery(kv[:j])] = unescapeQuery(kv[j+1:])
	}
	return path, q
}

// appendEscaped appends s query-escaped: space as '+', reserved and
// non-printable bytes as %XX.
func appendEscaped(b []byte, s string) []byte {
	const hex = "0123456789ABCDEF"
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == ' ':
			b = append(b, '+')
		case c == '&' || c == '=' || c == '%' || c == '+' || c == '?' || c == '#' || c < 0x20 || c > 0x7e:
			b = append(b, '%', hex[c>>4], hex[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return b
}

func unescapeQuery(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == '+':
			b.WriteByte(' ')
		case s[i] == '%' && i+2 < len(s):
			hi, e1 := hexVal(s[i+1])
			lo, e2 := hexVal(s[i+2])
			if e1 && e2 {
				b.WriteByte(hi<<4 | lo)
				i += 2
			} else {
				b.WriteByte(s[i])
			}
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	default:
		return 0, false
	}
}
