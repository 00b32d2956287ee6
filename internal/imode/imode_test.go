package imode_test

import (
	"strings"
	"testing"
	"time"

	"mcommerce/internal/imode"
	"mcommerce/internal/mtcp"
	"mcommerce/internal/simnet"
	"mcommerce/internal/webserver"
)

type imodeTopo struct {
	net                    *simnet.Network
	mobile, gwNode, origin *simnet.Node
	gateway                *imode.Gateway
	client                 *imode.Client
	originServer           *webserver.Server
}

func newIModeTopo(t testing.TB, seed int64) *imodeTopo {
	t.Helper()
	net := simnet.NewNetwork(simnet.NewScheduler(seed))
	mob := net.NewNode("mobile")
	gw := net.NewNode("portal")
	org := net.NewNode("origin")
	gw.Forwarding = true

	wl := simnet.Connect(mob, gw, simnet.LinkConfig{Rate: 100 * simnet.Kbps, Delay: 50 * time.Millisecond})
	wd := simnet.Connect(gw, org, simnet.LAN)
	mob.SetDefaultRoute(wl.IfaceA())
	org.SetDefaultRoute(wd.IfaceB())
	gw.SetRoute(mob.ID, wl.IfaceB())
	gw.SetRoute(org.ID, wd.IfaceA())

	gateway, err := imode.NewGateway(gw, mtcp.MustNewStack(gw), mtcp.Options{})
	if err != nil {
		t.Fatalf("NewGateway: %v", err)
	}
	srv, err := webserver.New(mtcp.MustNewStack(org), 80, mtcp.Options{})
	if err != nil {
		t.Fatalf("origin: %v", err)
	}
	srv.Handle("/shop", func(r *webserver.Request) *webserver.Response {
		return webserver.HTML(`<html><head><title>Shop</title><style>x{}</style></head>
			<body><table><tr><td><h1>Catalog</h1></td></tr></table>
			<p>Buy <a href="/buy" onclick="evil()">widgets</a></p>
			<script>tracking()</script></body></html>`)
	})
	client := imode.NewClient(mtcp.MustNewStack(mob), gateway.Addr(), mtcp.Options{})
	return &imodeTopo{net: net, mobile: mob, gwNode: gw, origin: org,
		gateway: gateway, client: client, originServer: srv}
}

func (w *imodeTopo) originAddr() simnet.Addr {
	return simnet.Addr{Node: w.origin.ID, Port: 80}
}

func TestAlwaysOnGetThroughPortal(t *testing.T) {
	w := newIModeTopo(t, 1)
	var got *webserver.Response
	// No session setup: the first request goes out immediately.
	w.client.Get(w.originAddr(), "/shop", func(r *webserver.Response, err error) {
		if err != nil {
			t.Errorf("Get: %v", err)
			return
		}
		got = r
	})
	if err := w.net.Sched.RunFor(30 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got == nil || got.Status != 200 {
		t.Fatalf("response = %+v", got)
	}
	if got.Header("content-type") != webserver.TypeCHTML {
		t.Errorf("content type = %s, want cHTML", got.Header("content-type"))
	}
	body := string(got.Body)
	if !strings.Contains(body, "Catalog") || !strings.Contains(body, `href="/buy"`) {
		t.Errorf("content lost: %s", body)
	}
	if strings.Contains(body, "<table") || strings.Contains(body, "script") || strings.Contains(body, "onclick") {
		t.Errorf("non-cHTML constructs leaked: %s", body)
	}
	st := w.gateway.Stats()
	if st.Requests != 1 || st.Filtered != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPortalShrinksContent(t *testing.T) {
	w := newIModeTopo(t, 2)
	w.client.Get(w.originAddr(), "/shop", func(r *webserver.Response, err error) {
		if err != nil {
			t.Errorf("Get: %v", err)
		}
	})
	if err := w.net.Sched.RunFor(30 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := w.gateway.Stats()
	if st.BytesToAir >= st.BytesFromOrigin {
		t.Errorf("cHTML (%dB) not smaller than origin HTML (%dB)", st.BytesToAir, st.BytesFromOrigin)
	}
}

func TestPortalPassesNonHTMLThrough(t *testing.T) {
	w := newIModeTopo(t, 3)
	blob := []byte{0x01, 0x02, 0x03, 0xFF}
	w.originServer.Handle("/blob", func(r *webserver.Request) *webserver.Response {
		return webserver.NewResponse(200, webserver.TypeBytes, blob)
	})
	var got []byte
	w.client.Get(w.originAddr(), "/blob", func(r *webserver.Response, err error) {
		if err != nil {
			t.Errorf("Get: %v", err)
			return
		}
		got = r.Body
	})
	if err := w.net.Sched.RunFor(30 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if string(got) != string(blob) {
		t.Errorf("blob corrupted: %v", got)
	}
	if w.gateway.Stats().PassThroughs != 1 {
		t.Errorf("PassThroughs = %d", w.gateway.Stats().PassThroughs)
	}
}

func TestPortalPostRelay(t *testing.T) {
	w := newIModeTopo(t, 4)
	var received []byte
	w.originServer.Handle("/order", func(r *webserver.Request) *webserver.Response {
		received = r.Body
		return webserver.Text("ordered")
	})
	var got string
	w.client.Post(w.originAddr(), "/order", webserver.TypeJSON, []byte(`{"qty":2}`),
		func(r *webserver.Response, err error) {
			if err != nil {
				t.Errorf("Post: %v", err)
				return
			}
			got = string(r.Body)
		})
	if err := w.net.Sched.RunFor(30 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if string(received) != `{"qty":2}` {
		t.Errorf("origin saw %q", received)
	}
	if got != "ordered" {
		t.Errorf("reply = %q", got)
	}
}

func TestPortalBadOriginHeader(t *testing.T) {
	w := newIModeTopo(t, 5)
	http := webserver.NewClient(mtcp.MustNewStack(w.net.NewNode("extra")), mtcp.Options{})
	_ = http // the extra node has no link; use the real client path instead
	var status int
	w.client.Get(simnet.Addr{}, "/shop", func(r *webserver.Response, err error) {
		if err != nil {
			t.Errorf("Get: %v", err)
			return
		}
		status = r.Status
	})
	if err := w.net.Sched.RunFor(30 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if status != 400 {
		t.Errorf("status = %d, want 400", status)
	}
}

func TestPortalOriginUnreachable(t *testing.T) {
	w := newIModeTopo(t, 6)
	var status int
	w.client.Get(simnet.Addr{Node: w.origin.ID, Port: 4444}, "/x", func(r *webserver.Response, err error) {
		if err != nil {
			t.Errorf("Get: %v", err)
			return
		}
		status = r.Status
	})
	if err := w.net.Sched.RunFor(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if status != 502 {
		t.Errorf("status = %d, want 502", status)
	}
}
