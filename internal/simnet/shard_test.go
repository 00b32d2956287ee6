package simnet

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mcommerce/internal/trace"
)

// echoPort is the fixed service port ring-world nodes answer on.
const echoPort Port = 7

// ringWorld is a P-shard world: one node per shard, cross links joining
// consecutive shards in a ring, a UDP echo service on every node and a
// pinger on every node firing `rounds` traced requests at the next
// shard's node.
type ringWorld struct {
	w     *Sharded
	nodes []*Node
	links []*Link
	got   []int // echo replies received per shard
}

func buildRingWorld(tb testing.TB, shards, rounds int, cfg LinkConfig) *ringWorld {
	tb.Helper()
	legs := make([]LinkConfig, shards)
	for k := range legs {
		legs[k] = cfg
	}
	return buildRing(tb, rounds, legs)
}

// heteroRing is a 3-shard ring whose 2-0 leg is four times slower than
// the others (5ms, 5ms, 20ms): the mixed-delay world, where every pair
// still exchanges at every window of the fastest leg's width.
func heteroRing(tb testing.TB, rounds int) *ringWorld {
	tb.Helper()
	legs := []LinkConfig{ringCfg, ringCfg, ringCfg}
	legs[2].Delay = 20 * time.Millisecond
	return buildRing(tb, rounds, legs)
}

// buildRing builds a ring with one shard per leg; legs[k] configures the
// cross link from shard k to shard k+1.
func buildRing(tb testing.TB, rounds int, legs []LinkConfig) *ringWorld {
	tb.Helper()
	shards := len(legs)
	rw := &ringWorld{w: NewSharded(42, shards)}
	for k := 0; k < shards; k++ {
		nd := rw.w.Shard(k).NewNode(fmt.Sprintf("ring%d", k))
		rw.nodes = append(rw.nodes, nd)
	}
	for k := 0; k < shards; k++ {
		next := (k + 1) % shards
		cfg := legs[k]
		cfg.Name = fmt.Sprintf("ring-%d-%d", k, next)
		l, err := rw.w.Cross(rw.nodes[k], rw.nodes[next], cfg)
		if err != nil {
			tb.Fatal(err)
		}
		rw.links = append(rw.links, l)
	}
	rw.got = make([]int, shards)
	for k := 0; k < shards; k++ {
		k := k
		nd := rw.nodes[k]
		next := (k + 1) % shards
		prev := (k - 1 + shards) % shards
		// Out to the next shard on our link's A side; back to the
		// previous shard on its link's B side.
		nd.SetRoute(rw.nodes[next].ID, rw.links[k].IfaceA())
		nd.SetRoute(rw.nodes[prev].ID, rw.links[prev].IfaceB())
		u := UDPOf(nd)
		if err := u.Listen(echoPort, func(_ Port, from Addr, body any, bytes int) {
			u.Send(echoPort, from, body, bytes)
		}); err != nil {
			tb.Fatal(err)
		}
		replyPort := u.ListenAny(func(_ Port, from Addr, body any, bytes int) {
			rw.got[k]++
		})
		sched := nd.Sched()
		tracer := rw.w.Shard(k).Tracer
		dst := Addr{Node: rw.nodes[next].ID, Port: echoPort}
		for i := 0; i < rounds; i++ {
			i := i
			sched.At(time.Duration(i)*10*time.Millisecond, func() {
				ctx := tracer.StartTrace("ring.ping", trace.LayerStation)
				prevCtx := tracer.Swap(ctx)
				u.Send(replyPort, dst, nil, 100)
				tracer.Swap(prevCtx)
				tracer.Finish(ctx)
			})
		}
	}
	return rw
}

// digest captures everything the determinism guarantee covers: the merged
// metrics dump, per-shard clocks and event counts, and the recorded span
// stream.
func (rw *ringWorld) digest() string {
	var b strings.Builder
	b.WriteString(rw.w.Snapshot().String())
	for k := 0; k < rw.w.NumShards(); k++ {
		s := rw.w.Shard(k).Sched
		fmt.Fprintf(&b, "shard%d now=%v executed=%d pending=%d replies=%d\n",
			k, s.Now(), s.Executed(), s.Pending(), rw.got[k])
	}
	for _, sp := range rw.w.Spans() {
		fmt.Fprintf(&b, "span %d/%d %s %v-%v annots=%d\n", sp.Trace, sp.ID, sp.Name, sp.Start, sp.End, sp.NAnnots)
	}
	return b.String()
}

func runRing(tb testing.TB, shards, rounds, workers int, cfg LinkConfig) *ringWorld {
	tb.Helper()
	return runWorld(tb, buildRingWorld(tb, shards, rounds, cfg), workers)
}

// runWorld runs rw for two virtual seconds with span export on.
func runWorld(tb testing.TB, rw *ringWorld, workers int) *ringWorld {
	tb.Helper()
	for k := 0; k < rw.w.NumShards(); k++ {
		rw.w.Shard(k).Tracer.EnableExport(1)
	}
	if err := rw.w.RunFor(2*time.Second, workers); err != nil {
		tb.Fatal(err)
	}
	return rw
}

var ringCfg = LinkConfig{Rate: 10 * Mbps, Delay: 5 * time.Millisecond}

// TestShardedWorkerInvariance is the core determinism guarantee: the
// worker count picks which goroutine runs a shard's window, never what
// the window computes, so every worker count yields a byte-identical
// world. It also pins the one-period rule: in both rings every shard has
// two cross-linked neighbours and drains both at every window boundary,
// even across the mixed-delay ring's slow leg, so barrier_waits is
// exactly twice windows.
func TestShardedWorkerInvariance(t *testing.T) {
	worlds := []struct {
		name    string
		build   func() *ringWorld
		workers []int
	}{
		{"ring4", func() *ringWorld { return buildRingWorld(t, 4, 50, ringCfg) }, []int{1, 2, 4, 8}},
		{"hetero3", func() *ringWorld { return heteroRing(t, 50) }, []int{1, 2, 3}},
	}
	for _, tc := range worlds {
		var want string
		for _, workers := range tc.workers {
			rw := runWorld(t, tc.build(), workers)
			if got := rw.w.Lookahead(); got != 5*time.Millisecond {
				t.Fatalf("%s: lookahead %v, want the fastest leg's 5ms", tc.name, got)
			}
			snap := rw.w.EngineSnapshot()
			windows := snap.Counter("simnet.shard.windows")
			syncs := snap.Counter("simnet.shard.barrier_waits")
			if windows == 0 || syncs != 2*windows {
				t.Fatalf("%s workers=%d: barrier_waits=%d over %d windows, want exactly 2 per window",
					tc.name, workers, syncs, windows)
			}
			got := rw.digest()
			if workers == 1 {
				want = got
				if steals := snap.Counter("simnet.shard.steals"); steals != 0 {
					t.Fatalf("%s: steals = %d at one lane, want 0", tc.name, steals)
				}
				continue
			}
			if got != want {
				t.Fatalf("%s: digest differs at workers=%d:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s",
					tc.name, workers, want, workers, got)
			}
		}
	}
}

// TestShardedAdaptivePairPeriods: no pair gets an exchange period of its
// own. On the mixed-delay ring the slow 2-0 pair is drained at every
// window of Lookahead(), the fastest leg's delay, so the window count
// follows that width; a ring of slow legs only widens the one period for
// every pair alike. Both rings deliver every echo reply.
func TestShardedAdaptivePairPeriods(t *testing.T) {
	slow := ringCfg
	slow.Delay = 20 * time.Millisecond
	worlds := []struct {
		name  string
		rw    *ringWorld
		width time.Duration
	}{
		{"hetero3", heteroRing(t, 50), 5 * time.Millisecond},
		{"slow3", buildRingWorld(t, 3, 50, slow), 20 * time.Millisecond},
	}
	for _, tc := range worlds {
		rw := runWorld(t, tc.rw, 3)
		if got := rw.w.Lookahead(); got != tc.width {
			t.Fatalf("%s: lookahead %v, want %v", tc.name, got, tc.width)
		}
		snap := rw.w.EngineSnapshot()
		windows := snap.Counter("simnet.shard.windows")
		syncs := snap.Counter("simnet.shard.barrier_waits")
		if want := int64(3 * (2 * time.Second / tc.width)); windows != want {
			t.Fatalf("%s: %d shard windows, want %d at width %v", tc.name, windows, want, tc.width)
		}
		if syncs != 2*windows {
			t.Fatalf("%s: barrier_waits=%d over %d windows, want every pair drained every window",
				tc.name, syncs, windows)
		}
		for k, n := range rw.got {
			if n != 50 {
				t.Fatalf("%s: shard %d received %d echo replies, want 50", tc.name, k, n)
			}
		}
	}
}

// TestShardedEightShardSteals: a wide world at full lane count exercises
// the work-stealing and scoreboard paths (verify.sh runs the simnet suite
// under -race); results must match the serial run byte for byte.
func TestShardedEightShardSteals(t *testing.T) {
	want := runRing(t, 8, 30, 1, ringCfg).digest()
	got := runRing(t, 8, 30, 8, ringCfg).digest()
	if got != want {
		t.Fatalf("8-lane run diverged from serial:\n--- 1 ---\n%s\n--- 8 ---\n%s", want, got)
	}
}

func TestShardedDelivery(t *testing.T) {
	rw := runRing(t, 4, 50, 4, ringCfg)
	for k, n := range rw.got {
		if n != 50 {
			t.Fatalf("shard %d received %d echo replies, want 50", k, n)
		}
	}
	for k, l := range rw.links {
		if l.Delivered[0] != 50 || l.Delivered[1] != 50 {
			t.Fatalf("link %d delivered %v, want 50 each way", k, l.Delivered)
		}
	}
}

func TestShardedLossCounters(t *testing.T) {
	cfg := ringCfg
	cfg.Loss = 0.3
	rw := runRing(t, 3, 100, 2, cfg)
	var delivered, lost uint64
	for _, l := range rw.links {
		delivered += l.Delivered[0] + l.Delivered[1]
		lost += l.Lost[0] + l.Lost[1]
	}
	if lost == 0 || delivered == 0 {
		t.Fatalf("loss model inert: delivered=%d lost=%d", delivered, lost)
	}
	// The loss verdicts and the delivery counters live in different
	// shards' registries; the merged snapshot must carry both.
	snap := rw.w.Snapshot()
	if snap.Counter("s0.simnet.xlink.ring-0-1.lost.ab") != int64(rw.links[0].Lost[0]) {
		t.Fatalf("transmit-side counter missing from source shard prefix:\n%s", snap)
	}
	if snap.Counter("s1.simnet.xlink.ring-0-1.delivered.ab") != int64(rw.links[0].Delivered[0]) {
		t.Fatalf("delivery-side counter missing from destination shard prefix:\n%s", snap)
	}
}

func TestShardedTraceNamespacing(t *testing.T) {
	rw := runRing(t, 3, 20, 3, ringCfg)
	for k := 0; k < 3; k++ {
		lo := uint64(k) << 48
		hi := uint64(k+1) << 48
		spans := rw.w.Shard(k).Tracer.Spans()
		if len(spans) == 0 {
			t.Fatalf("shard %d recorded no spans", k)
		}
		sawCross := false
		for _, sp := range spans {
			if uint64(sp.ID) <= lo || uint64(sp.ID) >= hi || uint64(sp.Trace) <= lo || uint64(sp.Trace) >= hi {
				t.Fatalf("shard %d span %d/%d outside its ID band [%d, %d)", k, sp.Trace, sp.ID, lo, hi)
			}
			for i := 0; i < int(sp.NAnnots); i++ {
				if sp.Annots[i].Kind == "xshard" {
					sawCross = true
				}
			}
		}
		if !sawCross {
			t.Fatalf("shard %d has no xshard annotation on its crossing spans", k)
		}
	}
	var buf bytes.Buffer
	if err := trace.WritePerfetto(&buf, rw.w.Spans()); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty Perfetto export")
	}
}

// TestOneShardMatchesSerial pins the one-shard world — what mcload
// -scale and -sync build at -gateways 1 — to a plain Network at the same
// seed: shard 0 keeps the world's seed and ID base 0, and the one-shard
// Snapshot is the shard's own unprefixed registry. The echo link is lossy
// so the seed shows in the drop counters, and every ping is traced so the
// ID bases show in the span stream and the echoed source addresses.
func TestOneShardMatchesSerial(t *testing.T) {
	run := func(net *Network, runFor func(time.Duration) error) string {
		var log strings.Builder
		a := net.NewNode("a")
		b := net.NewNode("b")
		l := Connect(a, b, LinkConfig{Name: "ab", Rate: 10 * Mbps, Delay: time.Millisecond, Loss: 0.2})
		a.SetDefaultRoute(l.IfaceA())
		b.SetDefaultRoute(l.IfaceB())
		ub := UDPOf(b)
		if err := ub.Listen(echoPort, func(_ Port, from Addr, body any, bytes int) {
			fmt.Fprintf(&log, "echo to node %d at %v\n", from.Node, net.Sched.Now())
			ub.Send(echoPort, from, body, bytes)
		}); err != nil {
			t.Fatal(err)
		}
		ua := UDPOf(a)
		port := ua.ListenAny(func(_ Port, from Addr, body any, bytes int) {})
		net.Tracer.EnableExport(1)
		for i := 0; i < 40; i++ {
			net.Sched.At(time.Duration(i)*5*time.Millisecond, func() {
				ctx := net.Tracer.StartTrace("echo.ping", trace.LayerStation)
				prev := net.Tracer.Swap(ctx)
				ua.Send(port, Addr{Node: b.ID, Port: echoPort}, nil, 64)
				net.Tracer.Swap(prev)
				net.Tracer.Finish(ctx)
			})
		}
		if err := runFor(time.Second); err != nil {
			t.Fatal(err)
		}
		for _, sp := range net.Tracer.Spans() {
			fmt.Fprintf(&log, "span %d/%d %s %v-%v\n", sp.Trace, sp.ID, sp.Name, sp.Start, sp.End)
		}
		return log.String()
	}

	serial := NewNetwork(NewScheduler(7))
	wantLog := run(serial, serial.Sched.RunFor)
	w := NewSharded(7, 1)
	gotLog := run(w.Shard(0), func(d time.Duration) error { return w.RunFor(d, 4) })
	if gotLog != wantLog {
		t.Fatalf("one-shard echoes and spans diverged from serial:\n--- serial ---\n%s\n--- one shard ---\n%s", wantLog, gotLog)
	}
	if got, want := w.Snapshot().String(), serial.Metrics.Snapshot().String(); got != want {
		t.Fatalf("one-shard run diverged from serial:\n--- serial ---\n%s\n--- one shard ---\n%s", want, got)
	}
	if w.Executed() != serial.Sched.Executed() {
		t.Fatalf("executed %d != serial %d", w.Executed(), serial.Sched.Executed())
	}
}

func TestCrossValidation(t *testing.T) {
	w := NewSharded(1, 2)
	a := w.Shard(0).NewNode("a")
	b := w.Shard(0).NewNode("b")
	c := w.Shard(1).NewNode("c")
	if _, err := w.Cross(a, b, ringCfg); err == nil {
		t.Fatal("same-shard Cross not rejected")
	}
	if _, err := w.Cross(a, c, LinkConfig{Rate: Mbps}); err == nil {
		t.Fatal("zero-delay Cross not rejected")
	}
	other := NewNetwork(NewScheduler(1))
	d := other.NewNode("d")
	if _, err := w.Cross(a, d, ringCfg); err == nil {
		t.Fatal("foreign-network Cross not rejected")
	}
	if _, err := w.Cross(a, c, ringCfg); err != nil {
		t.Fatal(err)
	}
}

func TestShardedStop(t *testing.T) {
	// A shard scheduler stopping halts the world short of its horizon at
	// any lane count, and the world is reusable: a fresh RunFor resumes.
	for _, workers := range []int{1, 3} {
		rw := buildRingWorld(t, 3, 100, ringCfg)
		sched := rw.w.Shard(2).Sched
		sched.After(25*time.Millisecond, sched.Stop)
		if err := rw.w.RunFor(2*time.Second, workers); !errors.Is(err, ErrStopped) {
			t.Fatalf("workers=%d: RunFor after shard Stop = %v, want ErrStopped", workers, err)
		}
		if rw.w.Now() >= 2*time.Second {
			t.Fatalf("workers=%d: world ran to the horizon despite Stop (now=%v)", workers, rw.w.Now())
		}
		if err := rw.w.RunFor(100*time.Millisecond, workers); err != nil {
			t.Fatalf("workers=%d: resume: %v", workers, err)
		}
	}
}

// TestShardedResume: splitting one horizon into many RunUntil calls must
// not change the outcome (cross records produced in the final window are
// sealed into their destination schedulers between calls).
func TestShardedResume(t *testing.T) {
	want := runRing(t, 3, 40, 2, ringCfg).digest()
	rw := buildRingWorld(t, 3, 40, ringCfg)
	for k := 0; k < 3; k++ {
		rw.w.Shard(k).Tracer.EnableExport(1)
	}
	for i := 0; i < 8; i++ {
		if err := rw.w.RunFor(250*time.Millisecond, 2); err != nil {
			t.Fatal(err)
		}
	}
	if got := rw.digest(); got != want {
		t.Fatalf("chunked run diverged:\n--- one call ---\n%s\n--- 8 calls ---\n%s", want, got)
	}
}

// TestShardedCausalityViolation: a cross-shard record dated before its
// destination shard's clock must fail the run with a deterministic
// error, freeze the destination at its boundary and let the source run
// on only until its next synchronization with it — at every lane count.
func TestShardedCausalityViolation(t *testing.T) {
	var wantErr string
	for _, workers := range []int{1, 2} {
		rw := buildRingWorld(t, 2, 0, ringCfg)
		if err := rw.w.RunFor(20*time.Millisecond, workers); err != nil {
			t.Fatal(err)
		}
		l := rw.links[0]
		r := rw.w.rings[0][1]
		r.recs = append(r.recs, xrec{
			at: 10 * time.Millisecond, seq: 1, src: 0, count: &l.Delivered[0], dst: l.IfaceB(),
			p: Packet{Src: Addr{Node: rw.nodes[0].ID}, Dst: Addr{Node: rw.nodes[1].ID}, Bytes: 100},
		})
		err := rw.w.RunFor(100*time.Millisecond, workers)
		if err == nil || !strings.Contains(err.Error(), "causality violation") {
			t.Fatalf("workers=%d: RunFor = %v, want a causality violation", workers, err)
		}
		if workers == 1 {
			wantErr = err.Error()
		} else if err.Error() != wantErr {
			t.Fatalf("workers=%d: error %q, want %q", workers, err, wantErr)
		}
		if got := rw.w.Shard(1).Sched.Now(); got != 20*time.Millisecond {
			t.Fatalf("workers=%d: shard 1 at %v, want frozen at 20ms", workers, got)
		}
		if got := rw.w.Shard(0).Sched.Now(); got != 25*time.Millisecond {
			t.Fatalf("workers=%d: shard 0 at %v, want its next sync point 25ms", workers, got)
		}
		if got := rw.w.Now(); got != 20*time.Millisecond {
			t.Fatalf("workers=%d: world at %v, want 20ms", workers, got)
		}
	}
}
