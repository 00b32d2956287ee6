package cellular_test

import (
	"testing"
	"time"

	"mcommerce/internal/cellular"
	"mcommerce/internal/mtcp"
	"mcommerce/internal/simnet"
	"mcommerce/internal/wireless"
)

// TestTCPDownloadSurvivesCellHandoff drives the full intra-system mobility
// story on the cellular bearer: a WCDMA download continues across a
// cell-to-cell handoff, with the link layer's OnAssociate hook repointing
// wired routes and firing the transport's fast retransmission ([2]) so the
// transfer resumes promptly after the blackout.
func TestTCPDownloadSurvivesCellHandoff(t *testing.T) {
	simn := simnet.NewNetwork(simnet.NewScheduler(5))
	server := simn.NewNode("server")
	router := simn.NewNode("router")
	bts1 := simn.NewNode("bts1")
	bts2 := simn.NewNode("bts2")
	mobNode := simn.NewNode("mobile")
	router.Forwarding = true

	lSrv := simnet.Connect(server, router, simnet.LAN)
	l1 := simnet.Connect(router, bts1, simnet.LAN)
	l2 := simnet.Connect(router, bts2, simnet.LAN)
	server.SetDefaultRoute(lSrv.IfaceA())
	router.SetRoute(server.ID, lSrv.IfaceB())
	bts1.SetRoute(server.ID, l1.IfaceB())
	bts2.SetRoute(server.ID, l2.IfaceB())
	bts1.SetDefaultRoute(l1.IfaceB())
	bts2.SetDefaultRoute(l2.IfaceB())

	var mobileConn *mtcp.Conn
	cfg := cellular.DefaultConfig()
	cfg.BitErrorRate = 0
	cfg.QueueLen = 512
	handoffs := 0
	var cell1, cell2 *cellular.Cell
	cfg.OnAssociate = func(_ *cellular.Mobile, c *cellular.Cell) {
		// The operator core repoints the wired route to the serving cell.
		switch c {
		case cell1:
			router.SetRoute(mobNode.ID, l1.IfaceA())
		case cell2:
			router.SetRoute(mobNode.ID, l2.IfaceA())
		}
		if handoffs > 0 && mobileConn != nil {
			mobileConn.SignalReconnect() // [2] after handoff completion
		}
	}
	cfg.OnHandoff = func(m *cellular.Mobile, from, to *cellular.Cell) { handoffs++ }

	cn := cellular.New(simn, cellular.WCDMA, cfg)
	cell1 = cn.AddCell(bts1, wireless.Position{X: 0})
	cell2 = cn.AddCell(bts2, wireless.Position{X: 8000})
	mob := cn.AddMobile(mobNode, wireless.Position{X: 1000})
	if err := mob.Attach(nil); err != nil {
		t.Fatalf("Attach: %v", err)
	}

	ss := mtcp.MustNewStack(server)
	ms := mtcp.MustNewStack(mobNode)
	const size = 600 << 10
	got := 0
	var doneAt time.Duration
	if err := ms.Listen(80, mtcp.Options{}, func(c *mtcp.Conn) {
		mobileConn = c
		c.OnData(func(b []byte) {
			got += len(b)
			if got >= size && doneAt == 0 {
				doneAt = simn.Sched.Now()
			}
		})
	}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	simn.Sched.After(time.Second, func() {
		ss.Dial(simnet.Addr{Node: mobNode.ID, Port: 80}, mtcp.Options{}, func(c *mtcp.Conn, err error) {
			if err != nil {
				t.Errorf("Dial: %v", err)
				return
			}
			c.Send(make([]byte, size))
		})
	})

	// Drive across the cell boundary mid-transfer.
	simn.Sched.After(1500*time.Millisecond, func() {
		mob.MoveTo(wireless.Position{X: 7000})
	})

	if err := simn.Sched.RunUntil(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got < size {
		t.Fatalf("transfer incomplete across handoff: %d/%d", got, size)
	}
	if handoffs != 1 {
		t.Errorf("handoffs = %d, want 1", handoffs)
	}
	if mob.Cell() == nil || mob.Cell() != cell2 {
		t.Error("mobile not served by bts2 after the move")
	}
	if !mob.Attached() {
		t.Error("packet attach lost across handoff")
	}
	// At 2 Mbps a 600 KiB transfer needs ~2.5 s plus the 300 ms blackout;
	// anything under ~10 s means recovery did not degenerate to RTO crawl.
	if doneAt > 10*time.Second {
		t.Errorf("transfer took %v; post-handoff recovery too slow", doneAt)
	}
}
