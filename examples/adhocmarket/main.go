// Ad hoc market — the paper's Section 6.1 scenario with no infrastructure
// at all: "if no APs are available, mobile devices can form a wireless ad
// hoc network among themselves and exchange data packets or perform
// business transactions as necessary."
//
// Five handhelds stand in a line at a street market, each only in radio
// range of its neighbors. The buyer (device 0) browses a catalog hosted ON
// THE SELLER'S HANDHELD (device 4) over plain HTTP riding the multi-hop
// mesh, then sends an HMAC-signed payment order the seller verifies — four
// radio hops, zero access points, zero servers.
//
//	go run ./examples/adhocmarket
package main

import (
	"fmt"
	"os"
	"time"

	"mcommerce/internal/adhoc"
	"mcommerce/internal/mtcp"
	"mcommerce/internal/security"
	"mcommerce/internal/simnet"
	"mcommerce/internal/webserver"
	"mcommerce/internal/wireless"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "adhocmarket:", err)
		os.Exit(1)
	}
}

type signedOrder struct {
	Order security.PaymentOrder
	Sig   []byte
}

func run() error {
	net := simnet.NewNetwork(simnet.NewScheduler(9))
	cfg := wireless.DefaultConfig()
	cfg.AdHoc = true
	lan := wireless.NewLAN(net, wireless.IEEE80211b, cfg) // note: no APs added

	const devices = 5
	const spacing = 80.0 // meters; radio range is 100 m — neighbors only
	nodes := make([]*simnet.Node, devices)
	routers := make([]*adhoc.Router, devices)
	for i := 0; i < devices; i++ {
		nodes[i] = net.NewNode(fmt.Sprintf("handheld-%d", i))
		st := lan.AddStation(nodes[i], wireless.Position{X: float64(i) * spacing})
		r, err := adhoc.NewRouter(nodes[i], st.Radio())
		if err != nil {
			return err
		}
		r.EnableTransparentForwarding()
		routers[i] = r
	}
	buyer, seller := nodes[0], nodes[devices-1]

	// The seller's handheld hosts its own tiny shop.
	sellerStack := mtcp.MustNewStack(seller)
	shop, err := webserver.New(sellerStack, 80, mtcp.Options{})
	if err != nil {
		return err
	}
	shop.Handle("/stall", func(r *webserver.Request) *webserver.Response {
		return webserver.HTML(`<html><head><title>Stall 42</title></head>
<body><p>Fresh widgets — 7.50 each. Pay by signed order.</p></body></html>`)
	})

	// The seller also accepts signed payment orders over raw datagrams.
	marketKey := []byte("stall-42-market-key")
	seller.Bind(simnet.ProtoControl, func(p *simnet.Packet) {
		so, ok := p.Body.(*signedOrder)
		if !ok {
			return
		}
		verdict := "REJECTED"
		if security.VerifyPayment(marketKey, so.Order, so.Sig) {
			verdict = "verified"
		}
		fmt.Printf("t=%-7s seller: order %s for %d from %s — %s\n",
			net.Sched.Now().Round(time.Millisecond), so.Order.OrderID,
			so.Order.AmountCp, so.Order.Payer, verdict)
	})

	// The buyer browses the stall across the mesh...
	httpc := webserver.NewClient(mtcp.MustNewStack(buyer), mtcp.Options{RTOInitial: 500 * time.Millisecond})
	httpc.Get(simnet.Addr{Node: seller.ID, Port: 80}, "/stall", nil,
		func(r *webserver.Response, err error) {
			if err != nil {
				fmt.Fprintln(os.Stderr, "browse:", err)
				return
			}
			fmt.Printf("t=%-7s buyer: fetched %q over %d-hop mesh (%d B)\n",
				net.Sched.Now().Round(time.Millisecond), "/stall", devices-1, len(r.Body))
			// ...then pays with a signed order over the same mesh.
			order := security.PaymentOrder{
				OrderID: "stall42-001", Payer: "buyer-0", Payee: "stall-42",
				AmountCp: 750, IssuedAt: int64(net.Sched.Now()),
			}
			routers[0].Send(&simnet.Packet{
				Src:   simnet.Addr{Node: buyer.ID},
				Dst:   simnet.Addr{Node: seller.ID},
				Proto: simnet.ProtoControl,
				Bytes: 160,
				Body:  &signedOrder{Order: order, Sig: security.SignPayment(marketKey, order)},
			}, func(err error) {
				if err != nil {
					fmt.Fprintln(os.Stderr, "pay:", err)
				}
			})
		})

	if err := net.Sched.RunFor(time.Minute); err != nil {
		return err
	}
	for i, r := range routers {
		st := r.Stats()
		fmt.Printf("handheld-%d: discoveries=%d rreqFwd=%d dataFwd=%d delivered=%d\n",
			i, st.Discoveries, st.RREQsForwarded, st.DataForwarded, st.DataDelivered)
	}
	return nil
}
