package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"mcommerce/internal/database"
	"mcommerce/internal/mobiledb"
	"mcommerce/internal/repl"
	"mcommerce/internal/simnet"
)

// TestSyncServiceDropsHeldAcksOnDemotion is the regression for stale held
// acks surviving a leadership change: a primary partitioned away from its
// replicas applies a device session and holds the ack on quorum (which
// never comes), a new leader truncates that write out of existence, and
// the old primary later re-wins an election. Its commit index then passes
// the pending entry's recorded walLen — over a rebuilt log that no longer
// contains the device's write — so releasing the ack would acknowledge a
// write the failover lost. The service must instead drop its pending
// responses the moment the member ceases to be leader.
func TestSyncServiceDropsHeldAcksOnDemotion(t *testing.T) {
	const devPort simnet.Port = 900
	s := simnet.NewScheduler(9)
	net := simnet.NewNetwork(s)
	link := simnet.LinkConfig{Rate: 100 * simnet.Mbps, Delay: 500 * time.Microsecond}

	nodes := make([]*simnet.Node, 3)
	addrs := make([]simnet.Addr, 3)
	for i := range nodes {
		nodes[i] = net.NewNode(fmt.Sprintf("db%d", i))
		addrs[i] = simnet.Addr{Node: nodes[i].ID, Port: repl.Port}
	}
	links := map[[2]int]*simnet.Link{}
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			l := simnet.Connect(nodes[i], nodes[j], link)
			nodes[i].SetRoute(nodes[j].ID, l.IfaceA())
			nodes[j].SetRoute(nodes[i].ID, l.IfaceB())
			links[[2]int{i, j}] = l
		}
	}
	part := func(r int, down bool) {
		for k, l := range links {
			if k[0] == r || k[1] == r {
				l.SetDown(down)
			}
		}
	}

	members := make([]*repl.Member, 3)
	services := make([]*SyncService, 3)
	for i := range members {
		m, err := repl.New(nodes[i], fmt.Sprintf("db%d", i), repl.Config{Rank: i, Members: addrs})
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
		svc, err := NewSyncService(m, mobiledb.PolicyLWW)
		if err != nil {
			t.Fatalf("service %d: %v", i, err)
		}
		members[i], services[i] = m, svc
	}
	if err := EnsureKVTable(members[0].DB()); err != nil {
		t.Fatal(err)
	}

	// A device node hangs directly off the primary, unaffected by the
	// replica partitions below.
	devNode := net.NewNode("dev")
	dl := simnet.Connect(devNode, nodes[0], link)
	devNode.SetDefaultRoute(dl.IfaceA())
	nodes[0].SetRoute(devNode.ID, dl.IfaceB())

	dev := mobiledb.New("dev0", 0)
	dev.SetNow(func() int64 { return int64(s.Now()) })
	if err := dev.PutTentative("held", []byte("lost-on-failover")); err != nil {
		t.Fatal(err)
	}
	req := dev.BeginUpSync()
	u := simnet.UDPOf(devNode)
	var acked *mobiledb.UpSyncResponse
	if err := u.Listen(devPort, func(_ simnet.Port, from simnet.Addr, body any, bytes int) {
		if r, ok := body.(*mobiledb.UpSyncResponse); ok && !r.Retry {
			acked = r
		}
	}); err != nil {
		t.Fatal(err)
	}

	// t=200ms: cut the primary off from both replicas, then upload the
	// session. The primary applies it but cannot commit — the ack is held.
	s.After(200*time.Millisecond, func() { part(0, true) })
	s.After(210*time.Millisecond, func() {
		u.Send(devPort, simnet.Addr{Node: nodes[0].ID, Port: SyncPort}, req, req.WireBytes())
	})
	s.After(400*time.Millisecond, func() {
		if services[0].AcksHeld != 1 || len(services[0].pending) != 1 {
			t.Errorf("acks_held=%d pending=%d during partition, want 1 held ack",
				services[0].AcksHeld, len(services[0].pending))
		}
	})
	// Ranks 1+2 elect rank 1; heal once the new reign is established. The
	// deposed primary must drop (not release) its held ack on demotion.
	s.After(1500*time.Millisecond, func() { part(0, false) })
	s.After(2*time.Second, func() {
		if members[0].IsLeader() {
			t.Fatal("old primary not demoted after heal")
		}
		if n := len(services[0].pending); n != 0 {
			t.Errorf("pending=%d after demotion, want 0", n)
		}
		// Now isolate the new leader so rank 0 re-wins an election: its
		// commit will pass the pending entry's walLen over a rebuilt log.
		part(1, true)
	})
	if err := s.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !members[0].IsLeader() {
		t.Fatal("rank 0 did not regain leadership after isolating rank 1")
	}
	if members[0].Commit() != members[0].DB().WALLen() {
		t.Errorf("commit %d lags WAL %d at quiescence", members[0].Commit(), members[0].DB().WALLen())
	}
	if acked != nil {
		t.Fatalf("device received an ack for a write the failover lost: %+v", acked)
	}
	// The device's write is gone from the authoritative log.
	err := members[0].DB().Atomically(func(tx *database.Tx) error {
		_, err := tx.Get(KVTable, "held")
		return err
	})
	if !errors.Is(err, database.ErrNotFound) {
		t.Errorf("lost write still present (err=%v), want ErrNotFound", err)
	}
	if a, b := members[0].Dump(), members[2].Dump(); a != b {
		t.Errorf("rank 0 and rank 2 diverged:\n%s\nvs\n%s", a, b)
	}
}
