package webserver

import (
	"fmt"
	"strings"

	"mcommerce/internal/metrics"
	"mcommerce/internal/mtcp"
	"mcommerce/internal/simnet"
	"mcommerce/internal/trace"
)

// Handler is the CGI interface of the host computer: application programs
// receive a parsed request and produce a response. Returning nil yields a
// 500.
type Handler func(*Request) *Response

// AsyncHandler is the event-driven handler form for application programs
// that must wait on further network activity (gateways, proxies): respond
// must eventually be called exactly once.
type AsyncHandler func(r *Request, respond func(*Response))

// Stats counts server activity.
type Stats struct {
	Requests    uint64
	NotFound    uint64
	Errors      uint64
	BytesServed uint64
}

// Server is the Web-server component of a host computer: it accepts
// simulated TCP connections, parses requests, dispatches them to registered
// application programs and writes responses (HTTP/1.0 close semantics: one
// request per connection).
type Server struct {
	stack *mtcp.Stack
	port  simnet.Port
	exact map[string]AsyncHandler
	// prefixes are checked longest-first for paths registered with a
	// trailing slash.
	prefixes []prefixHandler

	stats Stats
	// head is the reused buffer each response's head is written into;
	// Conn.Send copies it.
	head []byte
	// latency is the parse-to-respond service time per request, in
	// simulated time (web.server.<node>.latency).
	latency metrics.Histogram
}

type prefixHandler struct {
	prefix string
	h      AsyncHandler
}

// New starts a web server on the stack's node at the given port.
func New(stack *mtcp.Stack, port simnet.Port, opts mtcp.Options) (*Server, error) {
	s := &Server{stack: stack, port: port, exact: make(map[string]AsyncHandler)}
	if err := stack.Listen(port, opts, s.accept); err != nil {
		return nil, fmt.Errorf("webserver: %w", err)
	}
	sc := stack.Node().Network().Metrics.Instance("web.server." + metrics.Sanitize(stack.Node().Name))
	sc.AliasCounter("requests", &s.stats.Requests)
	sc.AliasCounter("not_found", &s.stats.NotFound)
	sc.AliasCounter("errors", &s.stats.Errors)
	sc.AliasCounter("bytes_served", &s.stats.BytesServed)
	s.latency = sc.Histogram("latency")
	return s, nil
}

// Addr returns the server's address.
func (s *Server) Addr() simnet.Addr {
	return simnet.Addr{Node: s.stack.Node().ID, Port: s.port}
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats { return s.stats }

// Handle registers a synchronous application program. A pattern ending in
// "/" matches by prefix (longest wins); otherwise the match is exact.
// Registering the same pattern twice replaces the handler.
func (s *Server) Handle(pattern string, h Handler) {
	s.HandleAsync(pattern, func(r *Request, respond func(*Response)) {
		respond(h(r))
	})
}

// HandleAsync registers an event-driven application program with the same
// pattern rules as Handle.
func (s *Server) HandleAsync(pattern string, h AsyncHandler) {
	if strings.HasSuffix(pattern, "/") {
		for i := range s.prefixes {
			if s.prefixes[i].prefix == pattern {
				s.prefixes[i].h = h
				return
			}
		}
		s.prefixes = append(s.prefixes, prefixHandler{prefix: pattern, h: h})
		// Keep longest-first order.
		for i := len(s.prefixes) - 1; i > 0; i-- {
			if len(s.prefixes[i].prefix) > len(s.prefixes[i-1].prefix) {
				s.prefixes[i], s.prefixes[i-1] = s.prefixes[i-1], s.prefixes[i]
			}
		}
		return
	}
	s.exact[pattern] = h
}

func (s *Server) route(path string) AsyncHandler {
	if h, ok := s.exact[path]; ok {
		return h
	}
	for _, ph := range s.prefixes {
		if strings.HasPrefix(path, ph.prefix) {
			return ph.h
		}
	}
	return nil
}

func (s *Server) accept(c *mtcp.Conn) {
	p := &parser{}
	p.onError = func(error) {
		s.stats.Errors++
		s.respond(c, Error(400, "malformed request"))
	}
	p.onRequest = func(req *Request) {
		req.Remote = c.RemoteAddr()
		s.stats.Requests++
		start := s.stack.Node().Sched().Now()
		// The host span brackets the same parse-to-respond interval the
		// latency histogram observes.
		tr := s.stack.Node().Network().Tracer
		span := tr.StartSpan(tr.Current(), "web.server.serve", trace.LayerHost)
		prev := tr.Swap(span)
		defer tr.Swap(prev)
		finish := func(resp *Response) {
			s.latency.Observe(s.stack.Node().Sched().Now() - start)
			tr.Finish(span)
			s.respond(c, resp)
		}
		h := s.route(req.Path)
		if h == nil {
			s.stats.NotFound++
			finish(Error(404, "not found: "+req.Path))
			return
		}
		responded := false
		h(req, func(resp *Response) {
			if responded {
				return
			}
			responded = true
			if resp == nil {
				s.stats.Errors++
				resp = Error(500, "handler returned no response")
			}
			finish(resp)
		})
	}
	c.OnData(p.feed)
}

// respond writes the response head into the reused head buffer and hands
// head and body to one Send, whose copy into the send buffer is the
// body's only copy on this hop.
func (s *Server) respond(c *mtcp.Conn, resp *Response) {
	s.head = appendResponseHead(s.head[:0], resp)
	s.stats.BytesServed += uint64(len(s.head) + len(resp.Body))
	c.Send(s.head, resp.Body)
	c.Close()
}

// Client issues requests over the simulated network. Each request opens a
// fresh connection (HTTP/1.0).
type Client struct {
	stack *mtcp.Stack
	opts  mtcp.Options

	// head is the reused buffer each request's head is written into.
	head []byte

	// Retries counts retry attempts issued by DoRetry (not first attempts).
	Retries uint64
	// backoffWaits counts inter-attempt backoff sleeps scheduled by DoRetry.
	backoffWaits metrics.Counter
}

// NewClient creates a client on the given stack. opts configures each
// request's connection. The retry counters register under
// web.client.<node name>.
func NewClient(stack *mtcp.Stack, opts mtcp.Options) *Client {
	c := &Client{stack: stack, opts: opts}
	sc := stack.Node().Network().Metrics.Instance("web.client." + metrics.Sanitize(stack.Node().Name))
	sc.AliasCounter("retries", &c.Retries)
	c.backoffWaits = sc.Counter("backoff_waits")
	return c
}

// Do sends a request to addr and invokes done with the response or error.
func (c *Client) Do(addr simnet.Addr, req *Request, done func(*Response, error)) {
	finished := false
	finish := func(r *Response, err error) {
		if finished {
			return
		}
		finished = true
		done(r, err)
	}
	c.stack.Dial(addr, c.opts, func(conn *mtcp.Conn, err error) {
		if err != nil {
			finish(nil, err)
			return
		}
		p := &parser{}
		p.onError = func(err error) { finish(nil, err) }
		p.onResponse = func(resp *Response) {
			finish(resp, nil)
			conn.Close()
		}
		conn.OnData(p.feed)
		conn.OnClose(func(err error) {
			if err != nil {
				finish(nil, err)
				return
			}
			finish(nil, ErrMalformed) // closed before a full response
		})
		c.head = appendRequestHead(c.head[:0], req)
		conn.Send(c.head, req.Body)
		conn.Close() // half-close: request fully sent
	})
}

// Get issues a GET with optional headers.
func (c *Client) Get(addr simnet.Addr, path string, headers map[string]string, done func(*Response, error)) {
	c.Do(addr, &Request{Method: "GET", Path: path, Headers: headers}, done)
}
