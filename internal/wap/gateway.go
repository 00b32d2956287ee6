package wap

import (
	"slices"
	"time"

	"mcommerce/internal/markup"
	"mcommerce/internal/metrics"
	"mcommerce/internal/mtcp"
	"mcommerce/internal/simnet"
	"mcommerce/internal/trace"
	"mcommerce/internal/webserver"
)

// GatewayConfig tunes the WAP gateway.
type GatewayConfig struct {
	// WTP tunes the wireless-side transaction layer.
	WTP WTPConfig
	// TCP tunes the wired-side connections to origin servers.
	TCP mtcp.Options
	// BinaryEncoding enables WMLC encoding of translated decks (the
	// encoding ablation turns this off to measure the on-air saving).
	BinaryEncoding bool
	// CacheTTL enables a response cache when positive: identical GETs
	// within the TTL are served from the gateway without touching the
	// origin.
	CacheTTL time.Duration
	// OriginRetry retries failed wired-side fetches (connect errors,
	// timeouts) before giving up on the origin. The zero value keeps the
	// legacy single-attempt behaviour.
	OriginRetry webserver.RetryPolicy
	// ServeStale degrades gracefully when the origin is unreachable: an
	// expired cache entry for the same GET is served (marked by a
	// StaleHits counter) instead of a 502.
	ServeStale bool
}

// DefaultGatewayConfig returns the configuration the experiments use.
func DefaultGatewayConfig() GatewayConfig {
	return GatewayConfig{BinaryEncoding: true}
}

// maxCardBytes is the per-card budget for HTML->WML translation.
const maxCardBytes = 1024

// processingDelay models the gateway's translation CPU time per response.
const processingDelay = 5 * time.Millisecond

// GatewayStats counts gateway activity.
type GatewayStats struct {
	Sessions        uint64
	Requests        uint64
	Translations    uint64 // HTML pages translated to WML
	PassThroughs    uint64 // origin already served WML
	CacheHits       uint64
	StaleHits       uint64 // expired cache entries served during origin outages
	OriginErrors    uint64
	OriginRetries   uint64 // wired-side retry attempts under OriginRetry
	BytesFromOrigin uint64 // HTML bytes fetched over the wired side
	BytesToAir      uint64 // payload bytes sent over the wireless side
}

type cacheEntry struct {
	reply   *wspReply
	expires time.Duration
}

// Gateway is the WAP gateway: WTP/WSP on the wireless side, HTTP over
// simulated TCP on the wired side, HTML-to-WML translation in between.
type Gateway struct {
	node *simnet.Node
	cfg  GatewayConfig
	wtp  *WTP
	http *webserver.Client

	nextSession uint32
	// sessions records, per open session, whether its microbrowser
	// accepts WMLC: the only thing translation needs from the connect.
	// Sessions are never reaped unless the client disconnects, so the
	// value is kept to one byte.
	sessions map[uint32]bool
	cache    map[string]*cacheEntry
	// memo holds recent translations (see translate).
	memo map[transcodeKey]transcoded

	stats GatewayStats
}

// NewGateway starts a WAP gateway on the node. Its wired-side fetches
// run on the node's TCP stack, which it may share with other services;
// the node needs routes to both the wireless and wired sides.
func NewGateway(node *simnet.Node, stack *mtcp.Stack, cfg GatewayConfig) (*Gateway, error) {
	g := &Gateway{
		node:     node,
		cfg:      cfg,
		http:     webserver.NewClient(stack, cfg.TCP),
		sessions: make(map[uint32]bool),
		cache:    make(map[string]*cacheEntry),
		memo:     make(map[transcodeKey]transcoded),
	}
	wtp, err := NewWTP(node, GatewayPort, cfg.WTP)
	if err != nil {
		return nil, err
	}
	g.wtp = wtp
	wtp.Handle(g.serve)
	// OriginRetries lives on the wired-side HTTP client, which aliases
	// itself under web.client.<node>; aliasing it here too would double-
	// register the same storage.
	sc := node.Network().Metrics.Instance("wap.gw." + metrics.Sanitize(node.Name))
	sc.AliasCounter("sessions", &g.stats.Sessions)
	sc.AliasCounter("requests", &g.stats.Requests)
	sc.AliasCounter("translations", &g.stats.Translations)
	sc.AliasCounter("pass_throughs", &g.stats.PassThroughs)
	sc.AliasCounter("cache_hits", &g.stats.CacheHits)
	sc.AliasCounter("stale_hits", &g.stats.StaleHits)
	sc.AliasCounter("origin_errors", &g.stats.OriginErrors)
	sc.AliasCounter("bytes_from_origin", &g.stats.BytesFromOrigin)
	sc.AliasCounter("bytes_to_air", &g.stats.BytesToAir)
	return g, nil
}

// Addr returns the gateway's wireless-side address.
func (g *Gateway) Addr() simnet.Addr { return g.wtp.Addr() }

// Stats returns a snapshot of the gateway's counters.
func (g *Gateway) Stats() GatewayStats {
	st := g.stats
	st.OriginRetries = g.http.Retries
	return st
}

// WTPStats returns the gateway's transaction-layer counters (retransmits,
// duplicates seen from clients, aborts).
func (g *Gateway) WTPStats() WTPStats { return g.wtp.Stats() }

// Crash models a gateway process crash: all volatile state — sessions,
// the response cache, and every in-flight transaction — is lost. Clients
// with in-flight methods see them abort or time out (no hangs); clients
// holding old session IDs get 403 "no session" and must reconnect. Wire
// this as the injector's onCrash hook for the gateway node.
func (g *Gateway) Crash() {
	g.wtp.Reset()
	g.sessions = make(map[uint32]bool)
	g.cache = make(map[string]*cacheEntry)
}

func (g *Gateway) serve(_ simnet.Addr, body any, respond func(any, int)) {
	switch m := body.(type) {
	case *wspConnect:
		g.connect(m, respond)
	case *wspMethod:
		g.serveMethod(m, respond)
	case *wspDisconnect:
		delete(g.sessions, m.SessionID)
		respond(&wspOK{}, pduBytes(&wspOK{}))
	default:
		rep := &wspReply{Status: 400, ContentType: webserver.TypeText, Payload: []byte("bad pdu")}
		respond(rep, pduBytes(rep))
	}
}

// connect establishes a session.
func (g *Gateway) connect(m *wspConnect, respond func(any, int)) {
	g.nextSession++
	g.sessions[g.nextSession] = slices.Contains(m.Accept, webserver.TypeWMLC)
	g.stats.Sessions++
	rep := &wspConnectReply{SessionID: g.nextSession}
	respond(rep, pduBytes(rep))
}

func (g *Gateway) serveMethod(m *wspMethod, respond func(any, int)) {
	wmlc, ok := g.sessions[m.SessionID]
	if !ok {
		rep := &wspReply{Status: 403, ContentType: webserver.TypeText, Payload: []byte("no session")}
		respond(rep, pduBytes(rep))
		return
	}
	g.stats.Requests++

	// The middleware span covers the gateway's whole method turnaround:
	// cache lookup, origin fetch (the wired-side connection span nests
	// under it), translation delay, and stale-degradation decisions.
	tr := g.node.Network().Tracer
	span := tr.StartSpan(tr.Current(), "wap.gw.serve", trace.LayerMiddleware)
	prev := tr.Swap(span)
	defer tr.Swap(prev)

	finish := func(rep *wspReply) {
		g.stats.BytesToAir += uint64(len(rep.Payload))
		tr.Finish(span)
		respond(rep, pduBytes(rep))
	}

	cacheKey := ""
	if m.Method == "GET" && (g.cfg.CacheTTL > 0 || g.cfg.ServeStale) {
		cacheKey = m.URL.String()
		if e, ok := g.cache[cacheKey]; ok && g.cfg.CacheTTL > 0 && g.node.Sched().Now() < e.expires {
			g.stats.CacheHits++
			finish(e.reply)
			return
		}
	}

	// The gateway asks the origin for HTML (or WML if the origin can
	// negotiate it directly).
	req := &webserver.Request{
		Method: m.Method,
		Path:   m.URL.Path,
		Headers: map[string]string{
			"accept": webserver.TypeWML + ", " + webserver.TypeHTML,
		},
		Body: m.Body,
	}
	for k, v := range m.Headers {
		req.Headers[k] = v
	}
	fetch := func(done func(*webserver.Response, error)) {
		rp := g.cfg.OriginRetry
		if rp.MaxRetries > 0 || rp.Timeout > 0 {
			g.http.DoRetry(m.URL.Origin, req, rp, done)
		} else {
			g.http.Do(m.URL.Origin, req, done)
		}
	}
	fetch(func(resp *webserver.Response, err error) {
		if err != nil {
			g.stats.OriginErrors++
			// Graceful degradation: a stale copy beats a 502 when the
			// origin is unreachable.
			if g.cfg.ServeStale && cacheKey != "" {
				if e, ok := g.cache[cacheKey]; ok {
					g.stats.StaleHits++
					tr.Annotate(span, "gw.stale")
					finish(e.reply)
					return
				}
			}
			finish(&wspReply{Status: 502, ContentType: webserver.TypeText, Payload: []byte(err.Error())})
			return
		}
		g.stats.BytesFromOrigin += uint64(len(resp.Body))
		deliver := func(rep *wspReply) {
			if cacheKey != "" && rep.Status == 200 {
				g.cache[cacheKey] = &cacheEntry{reply: rep, expires: g.node.Sched().Now() + g.cfg.CacheTTL}
			}
			finish(rep)
		}
		g.node.Sched().After(processingDelay, func() {
			deliver(g.translate(wmlc, resp))
		})
	})
}

// Translation memo bounds: at most memoEntries translations of origin
// bodies up to memoMaxBody bytes each. A full memo is emptied before the
// next insert.
const (
	memoEntries = 32
	memoMaxBody = 16 << 10
)

// transcodeKey is everything a translation depends on besides the
// gateway's own configuration: the origin's content type and body, and
// whether the reply is WMLC.
type transcodeKey struct {
	ct   string
	body string
	wmlc bool
}

// transcoded is one translation outcome: the reply, and the gateway
// counter the translation step bumps (nil for broken WML).
type transcoded struct {
	rep   *wspReply
	count *uint64
}

// translate converts an origin response into what the session's
// microbrowser accepts (wmlc: it accepts WMLC). Translation is a pure
// function of the memo key, so a hit returns the reply a fresh
// translation would build and bumps the same counter. Replies are shared
// between hits and with the response cache, and nothing writes to them.
func (g *Gateway) translate(wmlc bool, resp *webserver.Response) *wspReply {
	ct := resp.Header("content-type")
	if resp.Status != 200 || (ct != webserver.TypeWML && ct != webserver.TypeHTML && ct != "") {
		// Errors and opaque content (downloads) ship as is.
		return &wspReply{Status: resp.Status, ContentType: ct, Payload: resp.Body}
	}
	wmlc = wmlc && g.cfg.BinaryEncoding
	t, ok := g.memo[transcodeKey{ct, string(resp.Body), wmlc}]
	if !ok {
		t = g.transcode(ct, resp.Body, wmlc)
		if len(resp.Body) <= memoMaxBody {
			if len(g.memo) >= memoEntries {
				clear(g.memo)
			}
			g.memo[transcodeKey{ct, string(resp.Body), wmlc}] = t
		}
	}
	if t.count != nil {
		*t.count++
	}
	return t.rep
}

// transcode translates a 200 origin body of content type ct (WML, or
// HTML when empty) to WMLC (wmlc) or WML.
func (g *Gateway) transcode(ct string, body []byte, wmlc bool) transcoded {
	var deck *markup.Deck
	count := &g.stats.Translations
	if ct == webserver.TypeWML {
		d, err := markup.ParseWML(string(body))
		if err != nil {
			// Broken WML: ship the origin's bytes.
			return transcoded{rep: &wspReply{Status: 200, ContentType: ct, Payload: body}}
		}
		deck, count = d, &g.stats.PassThroughs
	} else {
		deck = markup.HTMLToWML(markup.Parse(string(body)), maxCardBytes)
	}
	if wmlc {
		return transcoded{&wspReply{Status: 200, ContentType: webserver.TypeWMLC, Payload: markup.EncodeWMLC(deck)}, count}
	}
	return transcoded{&wspReply{Status: 200, ContentType: webserver.TypeWML, Payload: []byte(deck.WML())}, count}
}
