package wap_test

import (
	"testing"
	"time"

	"mcommerce/internal/mtcp"
	"mcommerce/internal/simnet"
	"mcommerce/internal/wap"
	"mcommerce/internal/webserver"
)

func TestSessionPost(t *testing.T) {
	w := newWAPTopo(t, 45, 0, wap.DefaultGatewayConfig())
	var got []byte
	w.originServer.Handle("/submit", func(r *webserver.Request) *webserver.Response {
		got = append([]byte(nil), r.Body...)
		return webserver.NewResponse(200, webserver.TypeJSON, []byte(`{"ok":true}`))
	})
	var reply *wap.Reply
	wap.Connect(wap.NewWTPAny(w.mobile, wap.WTPConfig{}), w.gateway.Addr(), nil, func(s *wap.Session, err error) {
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		s.Post(w.originURL("/submit"), webserver.TypeJSON, []byte(`{"qty":4}`),
			func(rep *wap.Reply, err error) {
				if err != nil {
					t.Errorf("post: %v", err)
					return
				}
				reply = rep
			})
	})
	if err := w.net.Sched.RunFor(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if string(got) != `{"qty":4}` {
		t.Errorf("origin saw %q", got)
	}
	if reply == nil || reply.Status != 200 || string(reply.Payload) != `{"ok":true}` {
		t.Errorf("reply = %+v", reply)
	}
}

func TestSegmentedInvokePollSurvivesBlackout(t *testing.T) {
	// A segmented invoke hit by a short blackout recovers through the
	// segment-0 poll + nack path.
	wcfg := wap.WTPConfig{MaxPDU: 500, RetryInterval: 300 * time.Millisecond, MaxRetries: 20}
	net, init, resp, l := wtpPair(t, 47, simnet.LinkConfig{Rate: simnet.Mbps, Delay: 5 * time.Millisecond}, wcfg)
	resp.Handle(func(from simnet.Addr, body any, respond func(any, int)) {
		respond("ok", 2)
	})
	ok := false
	net.Sched.At(time.Millisecond, func() {
		init.Invoke(resp.Addr(), &bigBody{Label: "blob"}, 5000, func(result any, _ int, err error) {
			if err != nil {
				t.Errorf("invoke: %v", err)
				return
			}
			ok = result == "ok"
		})
	})
	// Blackout swallows most of the segment burst.
	net.Sched.At(2*time.Millisecond, func() { l.IfaceB().Up = false })
	net.Sched.At(900*time.Millisecond, func() { l.IfaceB().Up = true })
	if err := net.Sched.RunFor(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ok {
		t.Fatal("segmented invoke did not recover from blackout")
	}
	if init.Stats().Retransmits == 0 {
		t.Error("no poll retransmissions recorded")
	}
}

func TestNewGatewayWithSharedStack(t *testing.T) {
	// A gateway sharing a node's TCP stack with other services.
	net := simnet.NewNetwork(simnet.NewScheduler(48))
	gw := net.NewNode("gw")
	gwStack := mustStack(t, gw)
	g, err := wap.NewGateway(gw, gwStack, wap.GatewayConfig{})
	if err != nil {
		t.Fatalf("NewGateway: %v", err)
	}
	if g.Addr().Node != gw.ID || g.Addr().Port != wap.GatewayPort {
		t.Errorf("Addr = %v", g.Addr())
	}
	// A second gateway on the same node conflicts on the WTP port.
	if _, err := wap.NewGateway(gw, gwStack, wap.GatewayConfig{}); err == nil {
		t.Error("duplicate gateway accepted")
	}
}

func mustStack(t *testing.T, node *simnet.Node) *mtcp.Stack {
	t.Helper()
	s, err := mtcp.NewStack(node)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
