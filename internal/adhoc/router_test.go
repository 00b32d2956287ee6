package adhoc_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"mcommerce/internal/adhoc"
	"mcommerce/internal/security"
	"mcommerce/internal/simnet"
	"mcommerce/internal/wireless"
)

// mesh builds n stations in a line with the given spacing (meters), all in
// one ad hoc 802.11b LAN (range 100 m), each with a router.
type mesh struct {
	net      *simnet.Network
	lan      *wireless.LAN
	nodes    []*simnet.Node
	stations []*wireless.Station
	routers  []*adhoc.Router
}

func newMesh(t testing.TB, seed int64, n int, spacing float64) *mesh {
	t.Helper()
	net := simnet.NewNetwork(simnet.NewScheduler(seed))
	cfg := wireless.DefaultConfig()
	cfg.BitErrorRate = 0
	cfg.AdHoc = true
	lan := wireless.NewLAN(net, wireless.IEEE80211b, cfg) // no APs
	m := &mesh{net: net, lan: lan}
	for i := 0; i < n; i++ {
		node := net.NewNode(fmt.Sprintf("dev-%d", i))
		st := lan.AddStation(node, wireless.Position{X: float64(i) * spacing})
		r, err := adhoc.NewRouter(node, st.Radio())
		if err != nil {
			t.Fatalf("router %d: %v", i, err)
		}
		m.nodes = append(m.nodes, node)
		m.stations = append(m.stations, st)
		m.routers = append(m.routers, r)
	}
	return m
}

// sendCtl sends a control packet from station i to station j over the mesh.
func (m *mesh) sendCtl(i, j int, body any, done func(error)) {
	m.routers[i].Send(&simnet.Packet{
		Src:   simnet.Addr{Node: m.nodes[i].ID},
		Dst:   simnet.Addr{Node: m.nodes[j].ID},
		Proto: simnet.ProtoControl,
		Bytes: 100,
		Body:  body,
	}, done)
}

func TestDirectNeighborDelivery(t *testing.T) {
	m := newMesh(t, 1, 2, 80) // in range of each other
	var got any
	m.nodes[1].Bind(simnet.ProtoControl, func(p *simnet.Packet) { got = p.Body })
	m.sendCtl(0, 1, "hello neighbor", func(err error) {
		if err != nil {
			t.Errorf("send: %v", err)
		}
	})
	if err := m.net.Sched.RunFor(10 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != "hello neighbor" {
		t.Fatalf("got %v", got)
	}
}

func TestMultiHopDelivery(t *testing.T) {
	// 5 stations, 80 m apart, range 100 m: 0 can only reach 4 via 1-2-3.
	m := newMesh(t, 2, 5, 80)
	var got any
	m.nodes[4].Bind(simnet.ProtoControl, func(p *simnet.Packet) { got = p.Body })
	m.sendCtl(0, 4, "4 hops away", func(err error) {
		if err != nil {
			t.Errorf("send: %v", err)
		}
	})
	if err := m.net.Sched.RunFor(30 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != "4 hops away" {
		t.Fatalf("multi-hop payload = %v", got)
	}
	// The route must go through neighbor 1, and intermediates must have
	// forwarded data.
	if m.routers[1].Stats().DataForwarded == 0 {
		t.Error("station 1 forwarded nothing")
	}
	forwarded := uint64(0)
	for _, r := range m.routers[1:4] {
		forwarded += r.Stats().DataForwarded
	}
	if forwarded < 3 {
		t.Errorf("intermediate forwards = %d, want >= 3", forwarded)
	}
}

func TestBidirectionalAfterOneDiscovery(t *testing.T) {
	m := newMesh(t, 3, 4, 80)
	got := 0
	reply := func(i int) simnet.Handler {
		return func(p *simnet.Packet) {
			got++
			if i == 3 {
				// Answer back over the mesh; the reverse route was
				// installed by the forward discovery.
				m.sendCtl(3, 0, "pong", nil)
			}
		}
	}
	m.nodes[0].Bind(simnet.ProtoControl, reply(0))
	m.nodes[3].Bind(simnet.ProtoControl, reply(3))
	m.sendCtl(0, 3, "ping", nil)
	if err := m.net.Sched.RunFor(30 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 2 {
		t.Fatalf("messages delivered = %d, want ping+pong", got)
	}
	// The pong must not have needed a second flood.
	if d := m.routers[3].Stats().Discoveries; d != 0 {
		t.Errorf("station 3 ran %d discoveries; reverse route should exist", d)
	}
}

func TestNoRouteToIsolatedNode(t *testing.T) {
	m := newMesh(t, 4, 3, 80)
	// Isolate station 2 far away.
	m.stations[2].MoveTo(wireless.Position{X: 10_000})
	var gotErr error
	fired := false
	m.sendCtl(0, 2, "unreachable", func(err error) { gotErr, fired = err, true })
	if err := m.net.Sched.RunFor(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired || !errors.Is(gotErr, adhoc.ErrNoRoute) {
		t.Errorf("err = %v (fired=%v), want ErrNoRoute", gotErr, fired)
	}
}

func TestMeshHealsAfterRelayMoves(t *testing.T) {
	// Line 0-1-2 (spacing 80). Station 1 is the only relay. After it
	// leaves, 0->2 fails; when a new relay (station 3) arrives, the next
	// discovery succeeds.
	m := newMesh(t, 5, 4, 80)
	m.stations[3].MoveTo(wireless.Position{X: 50_000}) // park the spare far away
	delivered := 0
	m.nodes[2].Bind(simnet.ProtoControl, func(p *simnet.Packet) { delivered++ })

	m.sendCtl(0, 2, "first", nil)
	m.net.Sched.RunFor(10 * time.Second)
	if delivered != 1 {
		t.Fatalf("initial delivery failed")
	}

	// The relay leaves; wait out the route lifetime so stale state dies.
	m.stations[1].MoveTo(wireless.Position{X: 60_000})
	m.net.Sched.RunFor(40 * time.Second)
	var secondErr error
	m.sendCtl(0, 2, "second", func(err error) { secondErr = err })
	m.net.Sched.RunFor(time.Minute)
	if !errors.Is(secondErr, adhoc.ErrNoRoute) {
		t.Fatalf("send without relay: %v, want ErrNoRoute", secondErr)
	}

	// A new relay arrives at the old midpoint; the mesh heals.
	m.stations[3].MoveTo(wireless.Position{X: 80})
	var thirdErr error
	m.sendCtl(0, 2, "third", func(err error) { thirdErr = err })
	m.net.Sched.RunFor(10 * time.Second)
	if thirdErr != nil {
		t.Fatalf("send after heal: %v", thirdErr)
	}
	if delivered != 2 {
		t.Errorf("delivered = %d, want 2", delivered)
	}
	if m.routers[3].Stats().DataForwarded == 0 {
		t.Error("the new relay forwarded nothing")
	}
}

func TestFloodsAreSuppressed(t *testing.T) {
	// In a dense mesh every node hears every RREQ from several neighbors;
	// duplicate suppression must keep forwards bounded (each node
	// rebroadcasts a given flood at most once).
	m := newMesh(t, 6, 6, 40) // everyone within ~200m chain, heavy overlap
	m.sendCtl(0, 5, "x", nil)
	if err := m.net.Sched.RunFor(30 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, r := range m.routers {
		if f := r.Stats().RREQsForwarded; f > 1 {
			t.Errorf("station %d forwarded the flood %d times", i, f)
		}
	}
}

// TestPeerToPeerBusinessTransaction is the paper's ad hoc scenario end to
// end: with no infrastructure at all, a buyer three hops from a seller
// sends a signed payment order over the mesh and the seller verifies it.
func TestPeerToPeerBusinessTransaction(t *testing.T) {
	m := newMesh(t, 7, 4, 80)
	key := []byte("market-psk")
	order := security.PaymentOrder{
		OrderID: "stall-42", Payer: "buyer", Payee: "seller", AmountCp: 750, IssuedAt: 99,
	}
	type signedOrder struct {
		Order security.PaymentOrder
		Sig   []byte
	}

	var verified bool
	seller := m.nodes[3]
	seller.Bind(simnet.ProtoControl, func(p *simnet.Packet) {
		so, ok := p.Body.(*signedOrder)
		if !ok {
			t.Error("seller got unexpected body")
			return
		}
		verified = security.VerifyPayment(key, so.Order, so.Sig)
	})

	m.routers[0].Send(&simnet.Packet{
		Src:   simnet.Addr{Node: m.nodes[0].ID},
		Dst:   simnet.Addr{Node: seller.ID},
		Proto: simnet.ProtoControl,
		Bytes: 150,
		Body:  &signedOrder{Order: order, Sig: security.SignPayment(key, order)},
	}, func(err error) {
		if err != nil {
			t.Errorf("send: %v", err)
		}
	})
	if err := m.net.Sched.RunFor(30 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !verified {
		t.Fatal("signed order did not verify at the seller across the mesh")
	}
}
