package webserver

import (
	"strconv"
	"strings"
)

// refParser is the pre-linear message parser, kept verbatim as the
// oracle for the differential tests: it re-finds the head and rebuilds
// the header map on every feed until the body is complete. Same input,
// same chunking — the two must fire identical callback sequences. It
// panics when a content-length makes the message total overflow an int;
// callers exclude those inputs.
type refParser struct {
	buf        []byte
	onRequest  func(*Request)
	onResponse func(*Response)
	onError    func(error)
}

func (p *refParser) feed(b []byte) {
	p.buf = append(p.buf, b...)
	for p.tryParse() {
	}
}

func (p *refParser) tryParse() bool {
	head := strings.Index(string(p.buf), "\r\n\r\n")
	if head < 0 {
		return false
	}
	headBytes := p.buf[:head]
	lines := strings.Split(string(headBytes), "\r\n")
	if len(lines) == 0 {
		p.fail()
		return false
	}
	headers := make(map[string]string)
	for _, ln := range lines[1:] {
		i := strings.IndexByte(ln, ':')
		if i < 0 {
			p.fail()
			return false
		}
		headers[strings.ToLower(strings.TrimSpace(ln[:i]))] = strings.TrimSpace(ln[i+1:])
	}
	clen, _ := strconv.Atoi(headers["content-length"])
	if clen < 0 {
		clen = 0
	}
	total := head + 4 + clen
	if len(p.buf) < total {
		return false
	}
	body := append([]byte(nil), p.buf[head+4:total]...)
	first := lines[0]
	p.buf = p.buf[total:]

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

func (p *refParser) fail() {
	p.buf = nil
	if p.onError != nil {
		p.onError(ErrMalformed)
	}
}
