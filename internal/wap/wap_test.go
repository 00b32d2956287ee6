package wap_test

import (
	"strings"
	"testing"
	"time"

	"mcommerce/internal/markup"
	"mcommerce/internal/mtcp"
	"mcommerce/internal/simnet"
	"mcommerce/internal/wap"
	"mcommerce/internal/webserver"
)

// wapTopo is: mobile --lossy datagram link-- gateway --wired-- origin.
type wapTopo struct {
	net                    *simnet.Network
	mobile, gwNode, origin *simnet.Node
	wireless, wired        *simnet.Link
	gateway                *wap.Gateway
	originServer           *webserver.Server
}

func newWAPTopo(t testing.TB, seed int64, wirelessLoss float64, gwCfg wap.GatewayConfig) *wapTopo {
	t.Helper()
	net := simnet.NewNetwork(simnet.NewScheduler(seed))
	mob := net.NewNode("mobile")
	gw := net.NewNode("gateway")
	org := net.NewNode("origin")
	gw.Forwarding = true

	wl := simnet.Connect(mob, gw, simnet.LinkConfig{Rate: 100 * simnet.Kbps, Delay: 50 * time.Millisecond, Loss: wirelessLoss})
	wd := simnet.Connect(gw, org, simnet.LAN)
	mob.SetDefaultRoute(wl.IfaceA())
	org.SetDefaultRoute(wd.IfaceB())
	gw.SetRoute(mob.ID, wl.IfaceB())
	gw.SetRoute(org.ID, wd.IfaceA())

	gateway, err := wap.NewGateway(gw, mtcp.MustNewStack(gw), gwCfg)
	if err != nil {
		t.Fatalf("NewGateway: %v", err)
	}
	srv, err := webserver.New(mtcp.MustNewStack(org), 80, mtcp.Options{})
	if err != nil {
		t.Fatalf("origin server: %v", err)
	}
	srv.Handle("/shop", func(r *webserver.Request) *webserver.Response {
		return webserver.HTML(`<html><head><title>Shop</title></head>
			<body><h1>Catalog</h1><p>Buy <a href="/buy">widgets</a> now.</p></body></html>`)
	})
	return &wapTopo{
		net: net, mobile: mob, gwNode: gw, origin: org,
		wireless: wl, wired: wd, gateway: gateway, originServer: srv,
	}
}

func (w *wapTopo) originURL(path string) wap.URL {
	return wap.URL{Origin: simnet.Addr{Node: w.origin.ID, Port: 80}, Path: path}
}

func TestSessionConnectAndGet(t *testing.T) {
	w := newWAPTopo(t, 1, 0, wap.DefaultGatewayConfig())
	var deck *markup.Deck
	wap.Connect(wap.NewWTPAny(w.mobile, wap.WTPConfig{}), w.gateway.Addr(), nil, func(s *wap.Session, err error) {
		if err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		s.Get(w.originURL("/shop"), func(rep *wap.Reply, err error) {
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			if rep.ContentType != webserver.TypeWMLC {
				t.Errorf("content type = %s, want WMLC", rep.ContentType)
			}
			d, derr := markup.DecodeWMLC(rep.Payload)
			if derr != nil {
				t.Errorf("DecodeWMLC: %v", derr)
				return
			}
			deck = d
		})
	})
	if err := w.net.Sched.RunFor(30 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if deck == nil {
		t.Fatal("no deck delivered")
	}
	wml := deck.WML()
	if !strings.Contains(wml, "Catalog") || !strings.Contains(wml, `href="/buy"`) {
		t.Errorf("translated deck lost content: %s", wml)
	}
	st := w.gateway.Stats()
	if st.Sessions != 1 || st.Requests != 1 || st.Translations != 1 {
		t.Errorf("gateway stats = %+v", st)
	}
}

func TestGatewayPassesThroughNativeWML(t *testing.T) {
	w := newWAPTopo(t, 2, 0, wap.DefaultGatewayConfig())
	w.originServer.Handle("/native", func(r *webserver.Request) *webserver.Response {
		if !strings.Contains(r.Header("Accept"), webserver.TypeWML) {
			t.Error("gateway did not offer WML in Accept")
		}
		return webserver.NewResponse(200, webserver.TypeWML,
			[]byte(`<wml><card id="n" title="native"><p>native wml</p></card></wml>`))
	})
	var got *markup.Deck
	wap.Connect(wap.NewWTPAny(w.mobile, wap.WTPConfig{}), w.gateway.Addr(), nil, func(s *wap.Session, err error) {
		if err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		s.Get(w.originURL("/native"), func(rep *wap.Reply, err error) {
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			d, derr := markup.DecodeWMLC(rep.Payload)
			if derr != nil {
				t.Errorf("decode: %v", derr)
				return
			}
			got = d
		})
	})
	if err := w.net.Sched.RunFor(30 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got == nil || got.Cards[0].Title != "native" {
		t.Fatalf("native deck = %+v", got)
	}
	if w.gateway.Stats().PassThroughs != 1 {
		t.Errorf("PassThroughs = %d", w.gateway.Stats().PassThroughs)
	}
}

func TestBinaryEncodingAblation(t *testing.T) {
	run := func(binary bool) (ct string, payloadBytes int) {
		cfg := wap.DefaultGatewayConfig()
		cfg.BinaryEncoding = binary
		w := newWAPTopo(t, 3, 0, cfg)
		wap.Connect(wap.NewWTPAny(w.mobile, wap.WTPConfig{}), w.gateway.Addr(), nil, func(s *wap.Session, err error) {
			if err != nil {
				t.Errorf("Connect: %v", err)
				return
			}
			s.Get(w.originURL("/shop"), func(rep *wap.Reply, err error) {
				if err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				ct = rep.ContentType
				payloadBytes = len(rep.Payload)
			})
		})
		if err := w.net.Sched.RunFor(30 * time.Second); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return ct, payloadBytes
	}
	ctBin, nBin := run(true)
	ctText, nText := run(false)
	if ctBin != webserver.TypeWMLC || ctText != webserver.TypeWML {
		t.Fatalf("content types = %s / %s", ctBin, ctText)
	}
	if nBin >= nText {
		t.Errorf("binary %dB not smaller than text %dB", nBin, nText)
	}
}

func TestWTPRetransmitsOverLossyLink(t *testing.T) {
	cfg := wap.DefaultGatewayConfig()
	cfg.WTP = wap.WTPConfig{RetryInterval: 500 * time.Millisecond, MaxRetries: 10}
	w := newWAPTopo(t, 4, 0.25, cfg)
	ok := false
	wap.Connect(wap.NewWTPAny(w.mobile, cfg.WTP), w.gateway.Addr(), nil, func(s *wap.Session, err error) {
		if err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		s.Get(w.originURL("/shop"), func(rep *wap.Reply, err error) {
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			ok = rep.Status == 200
		})
	})
	if err := w.net.Sched.RunFor(2 * time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ok {
		t.Fatal("request did not complete over 25% lossy link")
	}
}

func TestMethodWithoutSessionFails(t *testing.T) {
	w := newWAPTopo(t, 5, 0, wap.DefaultGatewayConfig())
	var sess *wap.Session
	wap.Connect(wap.NewWTPAny(w.mobile, wap.WTPConfig{}), w.gateway.Addr(), nil, func(s *wap.Session, err error) {
		if err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		sess = s
		s.Disconnect(nil)
	})
	if err := w.net.Sched.RunFor(10 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	called := false
	sess.Get(w.originURL("/shop"), func(rep *wap.Reply, err error) {
		called = true
		if err != wap.ErrNoSession {
			t.Errorf("err = %v, want ErrNoSession", err)
		}
	})
	if !called {
		t.Error("callback not invoked")
	}
}

func TestGatewayCache(t *testing.T) {
	cfg := wap.DefaultGatewayConfig()
	cfg.CacheTTL = time.Minute
	w := newWAPTopo(t, 7, 0, cfg)
	fetches := 0
	w.originServer.Handle("/cached", func(r *webserver.Request) *webserver.Response {
		fetches++
		return webserver.HTML("<html><body><p>cacheable</p></body></html>")
	})
	done := 0
	wap.Connect(wap.NewWTPAny(w.mobile, wap.WTPConfig{}), w.gateway.Addr(), nil, func(s *wap.Session, err error) {
		if err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		var next func()
		next = func() {
			if done == 3 {
				return
			}
			s.Get(w.originURL("/cached"), func(rep *wap.Reply, err error) {
				if err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				done++
				next()
			})
		}
		next()
	})
	if err := w.net.Sched.RunFor(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if done != 3 {
		t.Fatalf("completed %d/3 gets", done)
	}
	if fetches != 1 {
		t.Errorf("origin fetched %d times, want 1 (cache)", fetches)
	}
	if w.gateway.Stats().CacheHits != 2 {
		t.Errorf("CacheHits = %d, want 2", w.gateway.Stats().CacheHits)
	}
}

func TestGatewayOriginDown(t *testing.T) {
	w := newWAPTopo(t, 8, 0, wap.DefaultGatewayConfig())
	var status int
	wap.Connect(wap.NewWTPAny(w.mobile, wap.WTPConfig{}), w.gateway.Addr(), nil, func(s *wap.Session, err error) {
		if err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		s.Get(wap.URL{Origin: simnet.Addr{Node: w.origin.ID, Port: 1234}, Path: "/x"},
			func(rep *wap.Reply, err error) {
				if err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				status = rep.Status
			})
	})
	if err := w.net.Sched.RunFor(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if status != 502 {
		t.Errorf("status = %d, want 502", status)
	}
}

// TestGatewayWMLCAndPlainSessions runs a WMLC session and a plain-WML
// session side by side on one gateway, each fetching the same page twice,
// so the second fetches hit the translation memo: each session must keep
// getting its own encoding of the same deck.
func TestGatewayWMLCAndPlainSessions(t *testing.T) {
	w := newWAPTopo(t, 3, 0, wap.DefaultGatewayConfig())
	ep := wap.NewWTPAny(w.mobile, wap.WTPConfig{})
	var replies [2][]*wap.Reply
	for i, accept := range [][]string{nil, {webserver.TypeWML}} {
		wap.Connect(ep, w.gateway.Addr(), accept, func(s *wap.Session, err error) {
			if err != nil {
				t.Errorf("Connect: %v", err)
				return
			}
			var get func()
			get = func() {
				s.Get(w.originURL("/shop"), func(rep *wap.Reply, err error) {
					if err != nil {
						t.Errorf("Get: %v", err)
						return
					}
					if replies[i] = append(replies[i], rep); len(replies[i]) < 2 {
						get()
					}
				})
			}
			get()
		})
	}
	if err := w.net.Sched.RunFor(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var wml []string
	for i, want := range []string{webserver.TypeWMLC, webserver.TypeWML} {
		if len(replies[i]) != 2 {
			t.Fatalf("session %d got %d replies, want 2", i, len(replies[i]))
		}
		for _, rep := range replies[i] {
			if rep.ContentType != want {
				t.Fatalf("session %d got %s, want %s", i, rep.ContentType, want)
			}
			text := string(rep.Payload)
			if want == webserver.TypeWMLC {
				deck, err := markup.DecodeWMLC(rep.Payload)
				if err != nil {
					t.Fatalf("DecodeWMLC: %v", err)
				}
				text = deck.WML()
			}
			wml = append(wml, text)
		}
	}
	for _, text := range wml[1:] {
		if text != wml[0] {
			t.Errorf("sessions got different decks:\n%s\n%s", wml[0], text)
		}
	}
	if st := w.gateway.Stats(); st.Translations != 4 {
		t.Errorf("gateway counted %d translations, want 4 (memo hits count)", st.Translations)
	}
}
