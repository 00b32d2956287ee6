// Package imode implements the i-mode middleware of the paper's Section
// 5.1 and Table 3: "the full-color, always-on, and packet-switched Internet
// service for cellular phones offered by NTT DoCoMo".
//
// Architecturally i-mode differs from WAP in exactly the ways Table 3
// contrasts: its host language is cHTML (Compact HTML) rather than WML, its
// "major technology" is TCP/IP modifications rather than a translating
// session protocol, and its service model is always-on — no session
// handshake precedes the first request. The Gateway here is therefore a
// plain HTTP proxy over the packet network that filters origin HTML down to
// the cHTML subset; the Client speaks TCP directly and issues its first
// request immediately.
package imode

import (
	"fmt"
	"strconv"
	"strings"

	"mcommerce/internal/markup"
	"mcommerce/internal/metrics"
	"mcommerce/internal/mtcp"
	"mcommerce/internal/simnet"
	"mcommerce/internal/trace"
	"mcommerce/internal/webserver"
)

// GatewayPort is the i-mode portal's TCP port.
const GatewayPort simnet.Port = 8000

// OriginHeader names the request header carrying the origin "node:port".
const OriginHeader = "x-imode-origin"

// GatewayStats counts portal activity.
type GatewayStats struct {
	Requests        uint64
	Filtered        uint64 // HTML pages filtered to cHTML
	PassThroughs    uint64 // non-HTML content shipped as-is
	OriginErrors    uint64
	BytesFromOrigin uint64
	BytesToAir      uint64
}

// Gateway is the i-mode portal.
type Gateway struct {
	node *simnet.Node
	http *webserver.Client
	// memo maps recent origin HTML bodies to their cHTML (see filter).
	memo map[string][]byte

	stats GatewayStats
}

// Filter memo bounds: at most memoEntries origin bodies of up to
// memoMaxBody bytes each. A full memo is emptied before the next insert.
const (
	memoEntries = 32
	memoMaxBody = 16 << 10
)

// NewGateway starts an i-mode portal on the node's TCP stack, which it
// may share with other services. tcp configures both the mobile-facing
// listener and origin connections.
func NewGateway(node *simnet.Node, stack *mtcp.Stack, tcp mtcp.Options) (*Gateway, error) {
	g := &Gateway{node: node, http: webserver.NewClient(stack, tcp), memo: make(map[string][]byte)}
	srv, err := webserver.New(stack, GatewayPort, tcp)
	if err != nil {
		return nil, err
	}
	srv.HandleAsync("/", g.proxy)
	sc := node.Network().Metrics.Instance("imode.gw." + metrics.Sanitize(node.Name))
	sc.AliasCounter("requests", &g.stats.Requests)
	sc.AliasCounter("filtered", &g.stats.Filtered)
	sc.AliasCounter("pass_throughs", &g.stats.PassThroughs)
	sc.AliasCounter("origin_errors", &g.stats.OriginErrors)
	sc.AliasCounter("bytes_from_origin", &g.stats.BytesFromOrigin)
	sc.AliasCounter("bytes_to_air", &g.stats.BytesToAir)
	return g, nil
}

// Addr returns the portal's mobile-facing address.
func (g *Gateway) Addr() simnet.Addr {
	return simnet.Addr{Node: g.node.ID, Port: GatewayPort}
}

// Stats returns a snapshot of the portal's counters.
func (g *Gateway) Stats() GatewayStats { return g.stats }

// proxy relays a mobile request to its origin and filters the response.
func (g *Gateway) proxy(req *webserver.Request, respond func(*webserver.Response)) {
	origin, err := parseOrigin(req.Header(OriginHeader))
	if err != nil {
		respond(webserver.Error(400, err.Error()))
		return
	}
	g.stats.Requests++
	// The middleware span covers the portal's whole turnaround: the origin
	// fetch (whose wired transport span nests under it) plus the cHTML
	// filtering delay.
	tr := g.node.Network().Tracer
	span := tr.StartSpan(tr.Current(), "imode.gw.proxy", trace.LayerMiddleware)
	prev := tr.Swap(span)
	defer tr.Swap(prev)
	upstream := &webserver.Request{
		Method:  req.Method,
		Path:    req.Path,
		Query:   req.Query,
		Headers: map[string]string{"accept": webserver.TypeCHTML + ", " + webserver.TypeHTML},
		Body:    req.Body,
	}
	g.http.Do(origin, upstream, func(resp *webserver.Response, err error) {
		if err != nil {
			g.stats.OriginErrors++
			tr.Finish(span)
			respond(webserver.Error(502, err.Error()))
			return
		}
		g.stats.BytesFromOrigin += uint64(len(resp.Body))
		tr.Finish(span)
		respond(g.filter(resp))
	})
}

// filter converts origin HTML to cHTML and passes everything else through.
// Filtering is a pure function of the origin body, so it is memoized on
// it; a hit counts exactly as a fresh filtering. Memoized bodies are
// shared by the responses built from them and are read-only.
func (g *Gateway) filter(resp *webserver.Response) *webserver.Response {
	ct := resp.Header("content-type")
	if resp.Status != 200 || (ct != webserver.TypeHTML && ct != "") {
		g.stats.PassThroughs++
		g.stats.BytesToAir += uint64(len(resp.Body))
		return resp
	}
	g.stats.Filtered++
	body, ok := g.memo[string(resp.Body)]
	if !ok {
		body = []byte(markup.RenderCHTML(markup.HTMLToCHTML(markup.Parse(string(resp.Body)))))
		if len(resp.Body) <= memoMaxBody {
			if len(g.memo) >= memoEntries {
				clear(g.memo)
			}
			g.memo[string(resp.Body)] = body
		}
	}
	g.stats.BytesToAir += uint64(len(body))
	return webserver.NewResponse(200, webserver.TypeCHTML, body)
}

// Client is the handset side of i-mode: a thin always-on HTTP client that
// tags each request with its origin for the portal.
type Client struct {
	http    *webserver.Client
	gateway simnet.Addr
}

// NewClient creates an i-mode client on the mobile's TCP stack.
func NewClient(stack *mtcp.Stack, gateway simnet.Addr, opts mtcp.Options) *Client {
	return &Client{http: webserver.NewClient(stack, opts), gateway: gateway}
}

// Get fetches origin's path through the portal.
func (c *Client) Get(origin simnet.Addr, path string, done func(*webserver.Response, error)) {
	c.http.Do(c.gateway, &webserver.Request{
		Method:  "GET",
		Path:    path,
		Headers: map[string]string{OriginHeader: FormatOrigin(origin)},
	}, done)
}

// Post submits a body to origin's path through the portal.
func (c *Client) Post(origin simnet.Addr, path, contentType string, body []byte, done func(*webserver.Response, error)) {
	c.http.Do(c.gateway, &webserver.Request{
		Method: "POST",
		Path:   path,
		Headers: map[string]string{
			OriginHeader:   FormatOrigin(origin),
			"content-type": contentType,
		},
		Body: body,
	}, done)
}

// parseOrigin parses "node:port".
func parseOrigin(s string) (simnet.Addr, error) {
	i := strings.IndexByte(s, ':')
	if i < 0 {
		return simnet.Addr{}, fmt.Errorf("imode: bad origin %q", s)
	}
	node, err1 := strconv.Atoi(s[:i])
	port, err2 := strconv.Atoi(s[i+1:])
	if err1 != nil || err2 != nil || node <= 0 || port <= 0 || port > 65535 {
		return simnet.Addr{}, fmt.Errorf("imode: bad origin %q", s)
	}
	return simnet.Addr{Node: simnet.NodeID(node), Port: simnet.Port(port)}, nil
}

// FormatOrigin renders an origin address for the OriginHeader.
func FormatOrigin(a simnet.Addr) string { return fmt.Sprintf("%d:%d", a.Node, a.Port) }
