package wap

import (
	"bytes"
	"testing"

	"mcommerce/internal/markup/markuptest"
	"mcommerce/internal/mtcp"
	"mcommerce/internal/simnet"
	"mcommerce/internal/webserver"
)

func newMemoGateway(t *testing.T) *Gateway {
	net := simnet.NewNetwork(simnet.NewScheduler(1))
	node := net.NewNode("gw")
	g, err := NewGateway(node, mtcp.MustNewStack(node), DefaultGatewayConfig())
	if err != nil {
		t.Fatalf("NewGateway: %v", err)
	}
	return g
}

// TestTranslateMemo checks, over the storefront and the markup seed
// corpus (byte soup to the HTML translator; broken WML, or WML text for
// the pass-through path), that a memo hit returns the bytes a fresh
// translation builds and moves the counters exactly as the miss did.
// WMLC and plain-WML translations of one body alternate on one gateway:
// two misses, then two hits.
func TestTranslateMemo(t *testing.T) {
	g := newMemoGateway(t)
	fresh := newMemoGateway(t)
	seen := map[string]bool{}
	for _, body := range markuptest.Inputs(t) {
		// One body under every type shares the memo.
		clear(g.memo)
		for n, ct := range []string{webserver.TypeHTML, "", webserver.TypeWML} {
			resp := webserver.NewResponse(200, ct, body)
			var first GatewayStats
			for i, wmlc := range []bool{true, false, true, false} {
				want := fresh.transcode(ct, body, wmlc).rep
				before := g.Stats()
				got := g.translate(wmlc, resp)
				after := g.Stats()
				if got.Status != want.Status || got.ContentType != want.ContentType || !bytes.Equal(got.Payload, want.Payload) {
					t.Fatalf("translation %d (ct %q, wmlc %v) of %q: got %s %q, fresh translation %s %q",
						i, ct, wmlc, body, got.ContentType, got.Payload, want.ContentType, want.Payload)
				}
				counted := GatewayStats{
					Translations: after.Translations - before.Translations,
					PassThroughs: after.PassThroughs - before.PassThroughs,
				}
				if i == 0 {
					first = counted
				} else if counted != first {
					t.Fatalf("translation %d (ct %q, wmlc %v) of %q counted %+v, the first counted %+v",
						i, ct, wmlc, body, counted, first)
				}
				seen[got.ContentType] = true
				if counted == (GatewayStats{}) {
					seen["broken WML"] = true
				}
			}
			if want := 2 * (n + 1); len(g.memo) != want {
				t.Fatalf("memo holds %d entries after translating one body as %d types for two encodings, want %d", len(g.memo), n+1, want)
			}
		}
	}
	// Every path ran: HTML and WML to WMLC and to WML, broken WML as is.
	st := g.Stats()
	if !seen[webserver.TypeWMLC] || !seen[webserver.TypeWML] || !seen["broken WML"] || st.Translations == 0 || st.PassThroughs == 0 {
		t.Errorf("outputs %v, stats %+v: want WMLC, WML and broken-WML replies, translations and pass-throughs", seen, st)
	}
}
