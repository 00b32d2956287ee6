package workload

import (
	"strconv"
	"testing"
	"time"

	"mcommerce/internal/mobiledb"
	"mcommerce/internal/simnet"
)

// syncWorld is a minimal two-node world: a cell aggregator hosting the
// virtual devices and a server node running a plain mobiledb sync server
// (no replication — the full tier is exercised in core and experiments).
type syncWorld struct {
	sched  *simnet.Scheduler
	net    *simnet.Network
	cell   *simnet.Node
	server *simnet.Node
	sv     *mobiledb.Server
}

const tierPort simnet.Port = 750

func newSyncWorld(t *testing.T, seed int64, policy mobiledb.Policy) *syncWorld {
	t.Helper()
	s := simnet.NewScheduler(seed)
	n := simnet.NewNetwork(s)
	w := &syncWorld{sched: s, net: n}
	w.cell = n.NewNode("cell")
	w.server = n.NewNode("server")
	l := simnet.Connect(w.cell, w.server, simnet.LAN)
	w.cell.SetDefaultRoute(l.IfaceA())
	w.server.SetDefaultRoute(l.IfaceB())
	w.sv = mobiledb.NewServer(policy, mobiledb.NewMemBackend())
	u := simnet.UDPOf(w.server)
	if err := u.Listen(tierPort, func(_ simnet.Port, from simnet.Addr, body any, bytes int) {
		req, ok := body.(*mobiledb.UpSyncRequest)
		if !ok {
			return
		}
		resp, err := w.sv.Apply(req)
		if err != nil {
			t.Errorf("apply: %v", err)
			return
		}
		resp.From = "server"
		u.Send(tierPort, from, resp, 64)
	}); err != nil {
		t.Fatal(err)
	}
	return w
}

func (w *syncWorld) tierAddr() simnet.Addr {
	return simnet.Addr{Node: w.server.ID, Port: tierPort}
}

func TestSyncFlowsConfirmsWrites(t *testing.T) {
	w := newSyncWorld(t, 41, mobiledb.PolicyLWW)
	f, err := NewSyncFlows(w.cell, "cell0", SyncFlowConfig{
		Devices: 8, FirstPort: 10000, Tier: []simnet.Addr{w.tierAddr()},
		WriteMean: time.Second, SyncMean: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.sched.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if f.Writes == 0 || f.Syncs == 0 {
		t.Fatalf("idle population: writes=%d syncs=%d", f.Writes, f.Syncs)
	}
	if f.Confirmed == 0 {
		t.Fatalf("no write ever confirmed (syncs=%d timeouts=%d)", f.Syncs, f.Timeouts)
	}
	if f.Timeouts != 0 || f.Lost != 0 {
		t.Errorf("healthy link saw timeouts=%d lost=%d", f.Timeouts, f.Lost)
	}
	if w.sv.Sessions == 0 || w.sv.Accepted == 0 {
		t.Errorf("server counters: sessions=%d accepted=%d", w.sv.Sessions, w.sv.Accepted)
	}
}

// TestSyncFlowsFollowsRedirects points rank 0 at a redirector that always
// bounces to rank 1; the population must still confirm writes.
func TestSyncFlowsFollowsRedirects(t *testing.T) {
	w := newSyncWorld(t, 42, mobiledb.PolicyLWW)
	const bouncePort simnet.Port = 751
	u := simnet.UDPOf(w.server)
	if err := u.Listen(bouncePort, func(_ simnet.Port, from simnet.Addr, body any, bytes int) {
		req, ok := body.(*mobiledb.UpSyncRequest)
		if !ok {
			return
		}
		u.Send(bouncePort, from, &mobiledb.UpSyncResponse{
			From: "bounce", Session: req.Session, Retry: true, RedirectRank: 1,
		}, 32)
	}); err != nil {
		t.Fatal(err)
	}
	f, err := NewSyncFlows(w.cell, "cell0", SyncFlowConfig{
		Devices: 4, FirstPort: 10000,
		Tier:      []simnet.Addr{{Node: w.server.ID, Port: bouncePort}, w.tierAddr()},
		WriteMean: time.Second, SyncMean: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.sched.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if f.Redirects == 0 {
		t.Error("redirector never hit")
	}
	if f.Confirmed == 0 {
		t.Errorf("no write confirmed despite redirect path (redirects=%d)", f.Redirects)
	}
}

// TestSyncFlowsTimeoutPolicies aims the population at a dead endpoint: the
// resilient tier keeps every tentative write across timeouts; the fragile
// baseline rolls them back and each rollback is a counted lost update.
func TestSyncFlowsTimeoutPolicies(t *testing.T) {
	run := func(fragile bool) *SyncFlows {
		w := newSyncWorld(t, 43, mobiledb.PolicyLWW)
		dead := simnet.Addr{Node: w.server.ID, Port: 9999} // nobody listens
		f, err := NewSyncFlows(w.cell, "cell0", SyncFlowConfig{
			Devices: 4, FirstPort: 10000, Tier: []simnet.Addr{dead},
			WriteMean: time.Second, SyncMean: 2 * time.Second,
			Fragile: fragile,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.sched.RunFor(time.Minute); err != nil {
			t.Fatal(err)
		}
		return f
	}
	res := run(false)
	if res.Timeouts == 0 {
		t.Fatal("dead endpoint produced no timeouts")
	}
	if res.Lost != 0 {
		t.Errorf("resilient population lost %d writes", res.Lost)
	}
	if res.PendingWrites() == 0 {
		t.Error("resilient population should still hold its backlog")
	}
	fra := run(true)
	if fra.Lost == 0 {
		t.Error("fragile population never lost a write across timeouts")
	}
}

// TestSyncFlowsInvalidationRing pushes broadcast-disk ticks at the cell
// and checks devices shed stale confirmed shared entries at their next
// sync pass, keeping their private ones.
func TestSyncFlowsInvalidationRing(t *testing.T) {
	w := newSyncWorld(t, 44, mobiledb.PolicyLWW)
	f, err := NewSyncFlows(w.cell, "cell0", SyncFlowConfig{
		Devices: 4, FirstPort: 10000, Tier: []simnet.Addr{w.tierAddr()},
		WriteMean: 500 * time.Millisecond, SyncMean: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.sched.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if f.Confirmed == 0 {
		t.Fatal("population never confirmed a shared write")
	}
	// Fabricate ticks claiming every shared key moved far ahead, one
	// stream position each.
	var moved []mobiledb.Invalidation
	for _, k := range f.sharedKeys {
		moved = append(moved, mobiledb.Invalidation{Key: k, SrvVer: 1 << 30})
	}
	through := f.ThroughWatermark() + uint64(len(moved))
	u := simnet.UDPOf(w.server)
	w.sched.After(0, func() {
		u.Send(tierPort, f.InvalidationAddr(), &mobiledb.InvalidationMsg{
			Invalid: moved, Through: through,
		}, 64)
	})
	if err := w.sched.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if f.ThroughWatermark() != through {
		t.Fatalf("cell watermark %d, want %d", f.ThroughWatermark(), through)
	}
	// Every cached (confirmed) shared entry is now stale; a device's
	// catch-up must drop each one and keep its private entry and its
	// tentative writes. A device that already caught up in the meantime
	// is skipped.
	cached := func(d *syncDevice) (shared, private int) {
		for _, e := range d.store.ChangesSince(0) {
			switch {
			case e.Tentative || e.Deleted:
			case e.Key == d.key:
				private++
			default:
				shared++
			}
		}
		return shared, private
	}
	stale := 0
	for i := range f.devices {
		d := &f.devices[i]
		if d.invPos >= through {
			continue
		}
		n, private := cached(d)
		tentative, inv := d.store.TentativeCount(), d.store.Invalidations
		d.catchUpInvalidations()
		left, privateLeft := cached(d)
		if left != 0 {
			t.Errorf("device %d kept %d stale shared entries", i, left)
		}
		if privateLeft != private {
			t.Errorf("device %d: catch-up left %d of %d private entries", i, privateLeft, private)
		}
		if got := d.store.Invalidations - inv; got != uint64(n) {
			t.Errorf("device %d: %d invalidations, want %d", i, got, n)
		}
		if d.store.TentativeCount() != tentative {
			t.Errorf("device %d: catch-up touched tentative writes", i)
		}
		stale += n
	}
	if stale == 0 {
		t.Fatal("no device cached a shared entry when the tick arrived")
	}
	if err := w.sched.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if f.InvTicks == 0 {
		t.Error("cell never consumed the broadcast tick")
	}
}

func TestSyncFlowsDeterministic(t *testing.T) {
	run := func() [6]uint64 {
		w := newSyncWorld(t, 45, mobiledb.PolicyLWW)
		f, err := NewSyncFlows(w.cell, "cell0", SyncFlowConfig{
			Devices: 16, FirstPort: 10000, Tier: []simnet.Addr{w.tierAddr()},
			WriteMean: 800 * time.Millisecond, SyncMean: 2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.sched.RunFor(2 * time.Minute); err != nil {
			t.Fatal(err)
		}
		return [6]uint64{f.Writes, f.Syncs, f.Confirmed, f.Overridden, f.Redirects, w.sv.Accepted}
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same-seed runs diverged: %v vs %v", a, b)
	}
}

func TestSyncFlowsValidation(t *testing.T) {
	w := newSyncWorld(t, 46, mobiledb.PolicyLWW)
	if _, err := NewSyncFlows(w.cell, "x", SyncFlowConfig{
		Devices: 0, Tier: []simnet.Addr{w.tierAddr()},
	}); err == nil {
		t.Error("zero devices accepted")
	}
	if _, err := NewSyncFlows(w.cell, "x", SyncFlowConfig{
		Devices: 4, FirstPort: 10000,
	}); err == nil {
		t.Error("empty tier accepted")
	}
	if _, err := NewSyncFlows(w.cell, "x", SyncFlowConfig{
		Devices: 10, FirstPort: 65530, Tier: []simnet.Addr{w.tierAddr()},
	}); err == nil {
		t.Error("port-space overflow accepted")
	}
	if _, err := NewSyncFlows(w.cell, "x", SyncFlowConfig{
		Devices: 4, FirstPort: 10000, Tier: []simnet.Addr{w.tierAddr()},
		WriteMean: time.Second,
	}); err == nil {
		t.Error("zero sync mean accepted")
	}
}

// TestSyncFlowsNoPerDeviceHandler is TestFlowsNoPerStationObject for the
// sync population. A device does own objects: its private store and its
// key strings, measured here by making them as NewSyncFlows does.
// Beyond those, 500 devices may allocate only a few hundred more objects
// than 16; a closure or map slot per device would add one per device.
func TestSyncFlowsNoPerDeviceHandler(t *testing.T) {
	build := func(devices int) float64 {
		return testing.AllocsPerRun(3, func() {
			w := newSyncWorld(t, 1, mobiledb.PolicyLWW)
			if _, err := NewSyncFlows(w.cell, "cell0", SyncFlowConfig{
				Devices: devices, FirstPort: 10000, Tier: []simnet.Addr{w.tierAddr()},
				WriteMean: time.Second, SyncMean: 2 * time.Second,
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	now := func() int64 { return 0 }
	own := testing.AllocsPerRun(3, func() {
		for i := 16; i < 500; i++ {
			id := strconv.Itoa(i)
			sinkKey = "cell0" + ".d" + id
			sinkStore = mobiledb.New("cell0"+"-d"+id, 0)
			sinkStore.SetNow(now)
		}
	})
	small, large := build(16), build(500)
	t.Logf("allocs: 16 devices %.0f, 500 devices %.0f, devices 16-499's own state %.0f", small, large, own)
	if extra := large - small - own; extra > 300 {
		t.Fatalf("500 devices allocate %.0f more objects than 16 beyond their own state", extra)
	}
}

// sinkKey and sinkStore put the measured device state on the heap, where
// a device's own state lives.
var (
	sinkKey   string
	sinkStore *mobiledb.Store
)
