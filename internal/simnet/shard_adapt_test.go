package simnet

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// heteroRing builds a 3-shard ring whose 2-0 leg is four times slower
// than the others (5ms, 5ms, 20ms), so the adaptive engine gives the
// slow pair an exchange period of 4 base windows while the fast pairs
// exchange every window.
func heteroRing(tb testing.TB, rounds int) *ringWorld {
	tb.Helper()
	rw := &ringWorld{w: NewSharded(42, 3)}
	for k := 0; k < 3; k++ {
		rw.nodes = append(rw.nodes, rw.w.Shard(k).NewNode(fmt.Sprintf("ring%d", k)))
	}
	delays := []time.Duration{5 * time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond}
	for k := 0; k < 3; k++ {
		next := (k + 1) % 3
		cfg := LinkConfig{Rate: 10 * Mbps, Delay: delays[k], Name: fmt.Sprintf("ring-%d-%d", k, next)}
		l, err := rw.w.Cross(rw.nodes[k], rw.nodes[next], cfg)
		if err != nil {
			tb.Fatal(err)
		}
		rw.links = append(rw.links, l)
	}
	rw.got = make([]int, 3)
	for k := 0; k < 3; k++ {
		k := k
		nd := rw.nodes[k]
		next := (k + 1) % 3
		prev := (k + 2) % 3
		nd.SetRoute(rw.nodes[next].ID, rw.links[k].IfaceA())
		nd.SetRoute(rw.nodes[prev].ID, rw.links[prev].IfaceB())
		u := UDPOf(nd)
		if err := u.Listen(echoPort, func(from Addr, body any, bytes int) {
			u.Send(echoPort, from, body, bytes)
		}); err != nil {
			tb.Fatal(err)
		}
		replyPort := u.ListenAny(func(from Addr, body any, bytes int) {
			rw.got[k]++
		})
		sched := nd.Sched()
		dst := Addr{Node: rw.nodes[next].ID, Port: echoPort}
		for i := 0; i < rounds; i++ {
			sched.At(time.Duration(i)*10*time.Millisecond, func() {
				u.Send(replyPort, dst, nil, 100)
			})
		}
	}
	return rw
}

// TestShardedAdaptivePairPeriods: pairs joined only by slow links must
// synchronize less often than every base window, without changing the
// results at any worker count.
func TestShardedAdaptivePairPeriods(t *testing.T) {
	w := heteroRing(t, 1).w
	if got := w.Lookahead(); got != 5*time.Millisecond {
		t.Fatalf("base lookahead %v, want 5ms", got)
	}
	if got := w.PairLookahead(2, 0); got != 20*time.Millisecond {
		t.Fatalf("PairLookahead(2,0) = %v, want 20ms", got)
	}
	if got := w.PairLookahead(0, 1); got != 5*time.Millisecond {
		t.Fatalf("PairLookahead(0,1) = %v, want 5ms", got)
	}
	if got := w.PairLookahead(0, 2); got != 20*time.Millisecond {
		t.Fatalf("PairLookahead(0,2) = %v, want 20ms (cross links are bidirectional)", got)
	}

	var want string
	for _, workers := range []int{1, 3} {
		rw := heteroRing(t, 50)
		if err := rw.w.RunFor(2*time.Second, workers); err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			want = rw.digest()
			// Six directed pairs; a full-barrier engine would sync every
			// pair at every boundary. The 2<->0 pairs run at period 4, so
			// the sync count must come in well under that.
			snap := rw.w.EngineSnapshot()
			windows := snap.Counter("simnet.shard.windows")
			syncs := snap.Counter("simnet.shard.barrier_waits")
			if windows == 0 || syncs == 0 {
				t.Fatalf("engine counters inert: windows=%d syncs=%d\n%s", windows, syncs, snap)
			}
			full := windows * 2 // 6 pairs over 3 shards = 2 per shard window
			if syncs >= full {
				t.Fatalf("relaxed engine synced %d times, full-barrier equivalent is %d", syncs, full)
			}
			for _, name := range []string{"simnet.shard.windows", "simnet.shard.barrier_waits",
				"simnet.shard.steals"} {
				if !strings.Contains(snap.String(), name) {
					t.Fatalf("engine snapshot missing %s:\n%s", name, snap)
				}
			}
			if snap.Counter("simnet.shard.steals") != 0 {
				t.Fatalf("steals = %d at one lane, want 0", snap.Counter("simnet.shard.steals"))
			}
		} else if got := rw.digest(); got != want {
			t.Fatalf("adaptive periods broke worker invariance at workers=%d:\n--- 1 ---\n%s\n--- %d ---\n%s",
				workers, want, workers, got)
		}
	}
}

// floorWorld is a 2-shard client/server world: shard 0 pings every
// interval (phase-shifted by phase), shard 1 answers through an echo
// whose reply fires serviceDelay after each request. Whether a service
// floor declared for shard 1 is honest depends on where the replies
// land inside shard 1's exchange periods — the tests pick the phases
// deliberately.
func floorWorld(tb testing.TB, rounds int, serviceDelay, interval, phase time.Duration) *Sharded {
	tb.Helper()
	w := NewSharded(42, 2)
	a := w.Shard(0).NewNode("client")
	b := w.Shard(1).NewNode("server")
	cfg := LinkConfig{Rate: 10 * Mbps, Delay: 5 * time.Millisecond, Name: "cut"}
	l, err := w.Cross(a, b, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	a.SetRoute(b.ID, l.IfaceA())
	b.SetRoute(a.ID, l.IfaceB())
	ub := UDPOf(b)
	sb := b.Sched()
	if err := ub.Listen(echoPort, func(from Addr, body any, bytes int) {
		reply := from
		sb.AfterCall(serviceDelay, func(any) {
			ub.Send(echoPort, reply, nil, 64)
		}, nil)
	}); err != nil {
		tb.Fatal(err)
	}
	ua := UDPOf(a)
	port := ua.ListenAny(func(from Addr, body any, bytes int) {})
	sa := a.Sched()
	dst := Addr{Node: b.ID, Port: echoPort}
	for i := 0; i < rounds; i++ {
		sa.At(phase+time.Duration(i)*interval, func() {
			ua.Send(port, dst, nil, 100)
		})
	}
	return w
}

func floorDigest(w *Sharded) string {
	return fmt.Sprintf("%snow=%v executed=%d pending=%d\n",
		w.Snapshot().String(), w.Now(), w.Executed(), w.Pending())
}

// TestShardedServiceFloorAdaptive: an honest service floor must not
// change a single byte of the run, only reduce how often the declaring
// shard's neighbours synchronize with it. The world's phase structure
// makes the 5ms floor honest: pings fire every 20ms on the period grid,
// the 12ms service delay pushes every reply 7.1ms past the start of its
// 10ms exchange period (floor 5ms + delay 5ms = period 2 windows), so
// each reply's 5ms link delay carries it past the period's end.
func TestShardedServiceFloorAdaptive(t *testing.T) {
	const (
		service  = 12 * time.Millisecond
		interval = 20 * time.Millisecond
		floor    = 5 * time.Millisecond
	)

	base := floorWorld(t, 80, service, interval, 0)
	if err := base.RunFor(2*time.Second, 2); err != nil {
		t.Fatal(err)
	}
	want := floorDigest(base)
	baseSyncs := base.EngineSnapshot().Counter("simnet.shard.barrier_waits")

	flr := floorWorld(t, 80, service, interval, 0)
	if err := flr.SetServiceFloor(1, floor); err != nil {
		t.Fatal(err)
	}
	if got := flr.PairLookahead(1, 0); got != 5*time.Millisecond+floor {
		t.Fatalf("PairLookahead(1,0) with floor = %v, want 10ms", got)
	}
	if err := flr.RunFor(2*time.Second, 2); err != nil {
		t.Fatal(err)
	}
	if got := floorDigest(flr); got != want {
		t.Fatalf("honest floor changed the run:\n--- no floor ---\n%s\n--- floor ---\n%s", want, got)
	}
	flrSyncs := flr.EngineSnapshot().Counter("simnet.shard.barrier_waits")
	if flrSyncs >= baseSyncs {
		t.Fatalf("floor did not reduce synchronization: %d syncs with floor, %d without", flrSyncs, baseSyncs)
	}

	if err := flr.SetServiceFloor(5, time.Millisecond); err == nil {
		t.Fatal("floor for unknown shard not rejected")
	}
	if err := flr.SetServiceFloor(0, -time.Millisecond); err == nil {
		t.Fatal("negative floor not rejected")
	}
}

// TestShardedServiceFloorDishonest: the same topology with the pings
// phase-shifted so replies fire just 1.1ms into their exchange period —
// the declared 5ms floor is a lie, a reply's arrival lands inside a
// window its destination already ran, and the engine must detect it at
// drain time and fail deterministically rather than corrupt causality
// silently.
func TestShardedServiceFloorDishonest(t *testing.T) {
	w := floorWorld(t, 80, 2*time.Millisecond, 20*time.Millisecond, 4*time.Millisecond)
	if err := w.SetServiceFloor(1, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	err := w.RunFor(2*time.Second, 2)
	if err == nil {
		t.Fatal("dishonest service floor not detected")
	}
	if !strings.Contains(err.Error(), "service floor") {
		t.Fatalf("violation error does not identify the floor: %v", err)
	}
}

// TestShardedLookaheadInvarianceProperty: any manual lookahead narrower
// than the automatic one changes window boundaries and pair periods but
// may not change results.
func TestShardedLookaheadInvarianceProperty(t *testing.T) {
	want := runRing(t, 3, 30, 2, ringCfg, 0).digest()
	for _, la := range []time.Duration{
		time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond, 4 * time.Millisecond,
	} {
		if got := runRing(t, 3, 30, 2, ringCfg, la).digest(); got != want {
			t.Fatalf("lookahead %v changed the run:\n--- auto ---\n%s\n--- %v ---\n%s", la, want, la, got)
		}
	}
}

// TestShardedEightShardSteals: a wide world at full lane count exercises
// the work-stealing and relaxed-scoreboard paths (verify.sh runs this
// under -race); results must match the serial run byte for byte.
func TestShardedEightShardSteals(t *testing.T) {
	want := runRing(t, 8, 30, 1, ringCfg, 0).digest()
	got := runRing(t, 8, 30, 8, ringCfg, 0).digest()
	if got != want {
		t.Fatalf("8-lane run diverged from serial:\n--- 1 ---\n%s\n--- 8 ---\n%s", want, got)
	}
}

// TestShardedStopDuringRun: regression for the executor wedging when
// Stop lands while shards are mid-window (the barrier engine could park
// sibling workers at a phase barrier that never filled). The scoreboard
// engine must drain in-flight tasks, seal and return promptly — and the
// world must stay usable.
func TestShardedStopDuringRun(t *testing.T) {
	rw := buildRingWorld(t, 6, 100_000, ringCfg)
	done := make(chan error, 1)
	go func() { done <- rw.w.RunFor(1000*time.Second, 4) }()
	deadline := time.After(30 * time.Second)
	var err error
	for stopped := false; !stopped; {
		rw.w.Stop()
		select {
		case err = <-done:
			stopped = true
		case <-deadline:
			t.Fatal("executor wedged: Stop during a run did not terminate RunFor")
		case <-time.After(time.Millisecond):
		}
	}
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("RunFor after Stop = %v, want ErrStopped", err)
	}
	// The world resumes cleanly after the interrupted run.
	if err := rw.w.RunFor(50*time.Millisecond, 4); err != nil {
		t.Fatal(err)
	}
}
