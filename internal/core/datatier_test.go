package core_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mcommerce/internal/core"
	"mcommerce/internal/database"
	"mcommerce/internal/faults"
	"mcommerce/internal/mobiledb"
	"mcommerce/internal/simnet"
)

// devicePort is the station-side UDP port the tests receive sync
// responses on.
const devicePort simnet.Port = 900

func buildTier(t *testing.T, seed int64) *core.MC {
	t.Helper()
	mc, err := core.BuildMC(core.MCConfig{Seed: seed, DBReplicas: 2})
	if err != nil {
		t.Fatalf("BuildMC: %v", err)
	}
	return mc
}

func tierPut(t *testing.T, db *database.DB, k string, v int64) {
	t.Helper()
	err := db.Atomically(func(tx *database.Tx) error {
		row := database.Row{
			"k": k, "v": []byte(fmt.Sprint(v)), "del": false,
			"ver": v, "wts": int64(0), "origin": "test", "clock": v,
		}
		if _, gerr := tx.Get(core.KVTable, k); gerr == nil {
			return tx.Update(core.KVTable, row)
		}
		return tx.Insert(core.KVTable, row)
	})
	if err != nil {
		t.Fatalf("tier put %s: %v", k, err)
	}
}

// TestDataTierDeviceSessionEndToEnd drives a real disconnected-transaction
// session from a mobile station through the bearer and wired segments to
// the primary's sync service, and requires the accepted write to land on
// every replica.
func TestDataTierDeviceSessionEndToEnd(t *testing.T) {
	mc := buildTier(t, 1)
	dt := mc.DataTier
	sched := mc.Net.Sched

	dev := mobiledb.New("dev0", 0)
	dev.SetNow(func() int64 { return int64(sched.Now()) })
	if err := dev.PutTentative("cart", []byte("3 items")); err != nil {
		t.Fatal(err)
	}
	req := dev.BeginUpSync()

	stn := mc.Clients[0].Station.Node()
	u := simnet.UDPOf(stn)
	var resp *mobiledb.UpSyncResponse
	if err := u.Listen(devicePort, func(_ simnet.Port, from simnet.Addr, body any, bytes int) {
		if r, ok := body.(*mobiledb.UpSyncResponse); ok {
			resp = r
		}
	}); err != nil {
		t.Fatal(err)
	}
	addrs := dt.Addrs()
	sched.After(10*time.Millisecond, func() {
		u.Send(devicePort, addrs[0], req, req.WireBytes())
	})
	if err := sched.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if resp == nil {
		t.Fatal("no sync response reached the station")
	}
	if resp.Retry {
		t.Fatalf("primary redirected: %+v", resp)
	}
	confirmed, overridden := dev.FinishUpSync(resp)
	if confirmed != 1 || overridden != 0 {
		t.Fatalf("confirmed=%d overridden=%d", confirmed, overridden)
	}
	if dev.TentativeCount() != 0 {
		t.Error("tentative write still pending after ack")
	}
	if !dt.Converged() {
		t.Error("members diverged after a single session")
	}
	if !strings.Contains(dt.Members[1].Dump(), "cart") {
		t.Error("accepted write missing from replica 1")
	}
	// The ack was quorum-gated: the primary's commit covers its WAL.
	p := dt.Members[0]
	if p.Commit() < p.DB().WALLen() {
		t.Errorf("ack released before quorum: commit %d < wal %d", p.Commit(), p.DB().WALLen())
	}
}

// TestDataTierRedirectsNonPrimary requires a replica to bounce device
// sessions toward the primary instead of applying them.
func TestDataTierRedirectsNonPrimary(t *testing.T) {
	mc := buildTier(t, 2)
	dt := mc.DataTier
	sched := mc.Net.Sched

	dev := mobiledb.New("dev0", 0)
	if err := dev.PutTentative("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	req := dev.BeginUpSync()
	stn := mc.Clients[0].Station.Node()
	u := simnet.UDPOf(stn)
	var resp *mobiledb.UpSyncResponse
	if err := u.Listen(devicePort, func(_ simnet.Port, from simnet.Addr, body any, bytes int) {
		if r, ok := body.(*mobiledb.UpSyncResponse); ok {
			resp = r
		}
	}); err != nil {
		t.Fatal(err)
	}
	sched.After(10*time.Millisecond, func() {
		u.Send(devicePort, dt.Addrs()[1], req, req.WireBytes())
	})
	if err := sched.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if resp == nil {
		t.Fatal("no response from replica")
	}
	if !resp.Retry || resp.RedirectRank != 0 {
		t.Fatalf("replica reply = %+v, want Retry with redirect to rank 0", resp)
	}
	if dev.TentativeCount() != 1 {
		t.Error("aborted session lost the tentative write")
	}
}

// crashScenario is the satellite regression: a replica crash lands between
// WAL ship and ack (inside the fsync window of a streaming write load),
// and after restart and catch-up every member is byte-identical. Returns a
// digest of the final state.
func crashScenario(t *testing.T, seed int64) string {
	mc := buildTier(t, seed)
	dt := mc.DataTier
	sched := mc.Net.Sched
	in := faults.NewInjector(mc.Net)

	m1, s1 := dt.Members[1], dt.Services[1]
	in.RegisterNode("db1", dt.Nodes[0], func() { s1.Crash(); m1.Crash() }, m1.Restart)
	plan := faults.NewPlan("mid-stream-crash").Add(faults.Event{
		At: 151 * time.Millisecond, Duration: 300 * time.Millisecond,
		Kind: faults.NodeCrash, Target: "db1",
	})
	if err := in.Schedule(plan); err != nil {
		t.Fatal(err)
	}

	step := 0
	var tick func()
	tick = func() {
		tierPut(t, dt.Members[0].DB(), fmt.Sprintf("k%02d", step%16), int64(step))
		step++
		if step < 40 {
			sched.After(10*time.Millisecond, tick)
		}
	}
	sched.After(0, tick)
	if err := sched.RunFor(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !dt.Converged() {
		for i, m := range dt.Members {
			t.Logf("member %d (alive=%v):\n%s", i, m.Alive(), m.Dump())
		}
		t.Fatal("members diverged after crash catch-up")
	}
	if m1.Restarts != 1 {
		t.Fatalf("replica restarts = %d, want 1", m1.Restarts)
	}
	p := dt.Members[0]
	if p.Commit() != p.DB().WALLen() {
		t.Fatalf("commit %d lags WAL %d at quiescence", p.Commit(), p.DB().WALLen())
	}
	return fmt.Sprintf("%s|commit=%d|term=%d", p.Dump(), p.Commit(), p.Term())
}

// TestDataTierCrashDuringReplicationConverges pins convergence and
// per-seed byte-identity for the crash-between-ship-and-ack window, at two
// different seeds.
func TestDataTierCrashDuringReplicationConverges(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		a := crashScenario(t, seed)
		b := crashScenario(t, seed)
		if a != b {
			t.Fatalf("seed %d: same-seed runs diverged:\n%s\nvs\n%s", seed, a, b)
		}
	}
}

// TestDataTierSyncCrashTrigger wires the crash-during-sync fault: the
// primary crashes the instant a device session starts, the device gets no
// ack, and after restart a retry of the same session is idempotent.
func TestDataTierSyncCrashTrigger(t *testing.T) {
	mc := buildTier(t, 4)
	dt := mc.DataTier
	sched := mc.Net.Sched
	in := faults.NewInjector(mc.Net)

	m0, s0 := dt.Members[0], dt.Services[0]
	in.RegisterSyncTrigger("db0-sync", m0.Node(),
		func() { s0.Crash(); m0.Crash() }, m0.Restart, s0.OnSessionStart)
	plan := faults.NewPlan("sync-crash").Add(faults.Event{
		At: 5 * time.Millisecond, Duration: 500 * time.Millisecond,
		Kind: faults.SyncCrash, Target: "db0-sync",
	})
	if err := in.Schedule(plan); err != nil {
		t.Fatal(err)
	}

	dev := mobiledb.New("dev0", 0)
	dev.SetNow(func() int64 { return int64(sched.Now()) })
	if err := dev.PutTentative("pay", []byte("order-7")); err != nil {
		t.Fatal(err)
	}
	req := dev.BeginUpSync()
	stn := mc.Clients[0].Station.Node()
	u := simnet.UDPOf(stn)
	addrs := dt.Addrs()
	// The test device follows redirects: a Retry response re-sends the
	// same session to the hinted rank (or rotates when the hint is stale).
	var verdict *mobiledb.UpSyncResponse
	target := 0
	redirects := 0
	if err := u.Listen(devicePort, func(_ simnet.Port, from simnet.Addr, body any, bytes int) {
		r, ok := body.(*mobiledb.UpSyncResponse)
		if !ok || verdict != nil {
			return
		}
		if !r.Retry {
			verdict = r
			return
		}
		redirects++
		if r.RedirectRank >= 0 && r.RedirectRank < len(addrs) {
			target = r.RedirectRank
		} else {
			target = (target + 1) % len(addrs)
		}
		u.Send(devicePort, addrs[target], req, req.WireBytes())
	}); err != nil {
		t.Fatal(err)
	}
	send := func() { u.Send(devicePort, addrs[target], req, req.WireBytes()) }
	sched.After(10*time.Millisecond, send) // crashes the primary, no ack
	// Device timeout fires, session aborts, and the retry of the same
	// session lands wherever leadership settled after the restart.
	sched.After(4*time.Second, send)
	if err := sched.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if in.Stats().SyncCrashes != 1 {
		t.Fatalf("sync crashes = %d, want 1", in.Stats().SyncCrashes)
	}
	if verdict == nil {
		t.Fatalf("no verdict after retry (%d redirects)", redirects)
	}
	confirmed, overridden := dev.FinishUpSync(verdict)
	if confirmed != 1 || overridden != 0 {
		t.Fatalf("confirmed=%d overridden=%d", confirmed, overridden)
	}
	if !dt.Converged() {
		t.Error("members diverged after sync-crash recovery")
	}
}
