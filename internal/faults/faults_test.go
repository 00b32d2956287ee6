package faults

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"mcommerce/internal/simnet"
	"mcommerce/internal/trace"
)

func TestBackoffDelayGrowthAndCap(t *testing.T) {
	b := Backoff{Base: time.Second, Factor: 2, Cap: 5 * time.Second}
	want := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 5 * time.Second, 5 * time.Second}
	for i, w := range want {
		if got := b.Delay(i, nil); got != w {
			t.Errorf("attempt %d: delay %v, want %v", i, got, w)
		}
	}
	if got := b.Window(3); got != 7*time.Second {
		t.Errorf("Window(3) = %v, want 7s", got)
	}
}

func TestBackoffZeroValueIsFixedInterval(t *testing.T) {
	var b Backoff
	for i := 0; i < 4; i++ {
		if got := b.Delay(i, nil); got != time.Second {
			t.Errorf("zero-value attempt %d: %v, want 1s", i, got)
		}
	}
	// Factor < 1 also means fixed.
	b = Backoff{Base: 100 * time.Millisecond, Factor: 0.5}
	if got := b.Delay(5, nil); got != 100*time.Millisecond {
		t.Errorf("sub-1 factor attempt 5: %v, want 100ms", got)
	}
}

func TestBackoffJitterDeterministic(t *testing.T) {
	b := Backoff{Base: time.Second, Factor: 2, Jitter: 0.5}
	d1 := b.Delay(1, rand.New(rand.NewSource(7)))
	d2 := b.Delay(1, rand.New(rand.NewSource(7)))
	if d1 != d2 {
		t.Errorf("same RNG seed gave different delays: %v vs %v", d1, d2)
	}
	if d1 < 2*time.Second || d1 >= 3*time.Second {
		t.Errorf("jittered delay %v outside [2s, 3s)", d1)
	}
	// Nil RNG with jitter requested: no jitter, no panic.
	if got := b.Delay(1, nil); got != 2*time.Second {
		t.Errorf("nil-RNG delay %v, want 2s", got)
	}
}

func TestRandomPlanDeterministicAndSorted(t *testing.T) {
	cfg := RandomConfig{
		Horizon: 30 * time.Second,
		Events:  20,
		Links:   []string{"wan", "lan"},
		Ifaces:  []string{"radio"},
		Nodes:   []string{"gw"},
		Cuts:    []string{"backhaul"},
	}
	a := RandomPlan(42, cfg)
	b := RandomPlan(42, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	if a.String() != b.String() {
		t.Fatal("same seed produced different renderings")
	}
	if len(a.Events) != 20 {
		t.Fatalf("drew %d events, want 20", len(a.Events))
	}
	for i := 1; i < len(a.Events); i++ {
		if a.Events[i].At < a.Events[i-1].At {
			t.Fatal("events not sorted by At")
		}
	}
	c := RandomPlan(43, cfg)
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Error("different seeds produced identical plans")
	}
	// Empty menu: empty plan, no panic.
	if p := RandomPlan(1, RandomConfig{Horizon: time.Second, Events: 5}); len(p.Events) != 0 {
		t.Errorf("target-less config drew %d events", len(p.Events))
	}
}

// twoLinkTopo is a -- l1 -- r -- l2 -- b with a counting sink on b.
func twoLinkTopo(seed int64) (net *simnet.Network, a, r, b *simnet.Node, l1, l2 *simnet.Link, got *int) {
	net = simnet.NewNetwork(simnet.NewScheduler(seed))
	a = net.NewNode("a")
	r = net.NewNode("r")
	b = net.NewNode("b")
	r.Forwarding = true
	l1 = simnet.Connect(a, r, simnet.LinkConfig{Rate: 100 * simnet.Mbps, Delay: time.Millisecond})
	l2 = simnet.Connect(r, b, simnet.LinkConfig{Rate: 100 * simnet.Mbps, Delay: time.Millisecond})
	a.SetDefaultRoute(l1.IfaceA())
	r.SetRoute(b.ID, l2.IfaceA())
	r.SetRoute(a.ID, l1.IfaceB())
	b.SetDefaultRoute(l2.IfaceB())
	got = new(int)
	b.Bind(simnet.ProtoControl, func(p *simnet.Packet) { *got++ })
	return
}

func sendAt(net *simnet.Network, a *simnet.Node, dst simnet.NodeID, at time.Duration) {
	net.Sched.At(at, func() {
		a.Send(&simnet.Packet{Src: simnet.Addr{Node: a.ID}, Dst: simnet.Addr{Node: dst}, Proto: simnet.ProtoControl, Bytes: 100})
	})
}

func TestInjectorLinkFlapWindow(t *testing.T) {
	net, a, _, b, l1, _, got := twoLinkTopo(1)
	in := NewInjector(net)
	in.RegisterLink("access", l1)

	plan := NewPlan("flap").Add(Event{At: time.Second, Duration: 2 * time.Second, Kind: LinkDown, Target: "access"})
	// One packet before, two during, one after the outage.
	sendAt(net, a, b.ID, 500*time.Millisecond)
	sendAt(net, a, b.ID, 1500*time.Millisecond)
	sendAt(net, a, b.ID, 2500*time.Millisecond)
	sendAt(net, a, b.ID, 3500*time.Millisecond)

	if err := in.Schedule(plan); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if err := net.Sched.RunFor(10 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if *got != 2 {
		t.Errorf("delivered %d, want 2 (only outside the outage window)", *got)
	}
	if l1.DroppedDown[0] != 2 {
		t.Errorf("DroppedDown = %d, want 2", l1.DroppedDown[0])
	}
	st := in.Stats()
	if st.LinkDowns != 1 || st.LinkUps != 1 {
		t.Errorf("stats = %+v, want one down and one up", st)
	}
	if lg := in.Log(); len(lg) != 2 || !strings.Contains(lg[0], "access down") || !strings.Contains(lg[1], "access up") {
		t.Errorf("log = %v", lg)
	}
}

func TestInjectorBrownoutDegradesAndRestores(t *testing.T) {
	net, a, _, b, l1, _, got := twoLinkTopo(1)
	in := NewInjector(net)
	in.RegisterLink("access", l1)
	plan := NewPlan("brown").Add(Event{
		At: time.Second, Duration: time.Second, Kind: Brownout,
		Target: "access", RateFactor: 0.01, ExtraLoss: 0.5,
	})
	if err := in.Schedule(plan); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	// 100 packets inside the brownout, spaced wider than their 0.8 ms
	// serialization at the degraded 1 Mbps so none queue, then 100 after it.
	for i := range 100 {
		sendAt(net, a, b.ID, 1200*time.Millisecond+time.Duration(i)*5*time.Millisecond)
		sendAt(net, a, b.ID, 3*time.Second+time.Duration(i)*time.Millisecond)
	}
	net.Sched.RunUntil(2 * time.Second)
	if lost := l1.Lost[0]; lost < 30 || lost > 70 {
		t.Errorf("lost %d of 100 during the brownout, want about half", lost)
	}
	lost := l1.Lost[0]
	net.Sched.RunUntil(4 * time.Second)
	if l1.Lost[0] != lost || *got != 200-int(lost) {
		t.Errorf("after restore: lost %d more, delivered %d of %d", l1.Lost[0]-lost, *got, 200-lost)
	}
}

func TestInjectorNodeCrashHooksAndIfaces(t *testing.T) {
	net, a, r, b, _, _, got := twoLinkTopo(1)
	in := NewInjector(net)
	crashed, restarted := 0, 0
	in.RegisterNode("router", r, func() { crashed++ }, func() { restarted++ })

	plan := NewPlan("crash").Add(Event{At: time.Second, Duration: time.Second, Kind: NodeCrash, Target: "router"})
	sendAt(net, a, b.ID, 1500*time.Millisecond) // dies at the crashed router
	sendAt(net, a, b.ID, 2500*time.Millisecond) // passes after restart
	if err := in.Schedule(plan); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if err := net.Sched.RunFor(10 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if crashed != 1 || restarted != 1 {
		t.Errorf("hooks: crash=%d restart=%d, want 1/1", crashed, restarted)
	}
	if *got != 1 {
		t.Errorf("delivered %d, want 1", *got)
	}
	for _, ifc := range r.Ifaces() {
		if ifc.IsDown() {
			t.Error("router iface still down after restart")
		}
	}
}

// TestNodeCrashDumpsFlightRecorder pins the crash dump: with the world's
// tracer recording, a node crash appends the most recent spans to the
// fault log, at most flightDumpMax of them, one line each, right after
// the crash line.
func TestNodeCrashDumpsFlightRecorder(t *testing.T) {
	net, a, r, b, _, _, got := twoLinkTopo(1)
	net.Tracer.EnableExport(1)
	in := NewInjector(net)
	in.RegisterNode("router", r, nil, nil)
	// One traced send every 50 ms: a root span plus a hop span per link,
	// so more spans exist at crash time than the dump keeps.
	for i := 0; i < 40; i++ {
		net.Sched.At(time.Duration(i)*50*time.Millisecond, func() {
			root := net.Tracer.StartTrace("faults.test.send", trace.LayerStation)
			prev := net.Tracer.Swap(root)
			a.Send(&simnet.Packet{Src: simnet.Addr{Node: a.ID}, Dst: simnet.Addr{Node: b.ID}, Proto: simnet.ProtoControl, Bytes: 100})
			net.Tracer.Swap(prev)
			net.Tracer.Finish(root)
		})
	}
	plan := NewPlan("crash").Add(Event{At: time.Second, Duration: time.Second, Kind: NodeCrash, Target: "router"})
	if err := in.Schedule(plan); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if err := net.Sched.RunFor(10 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if *got == 0 {
		t.Fatal("no traced packet delivered")
	}
	lg := in.Log()
	at := -1
	for i, line := range lg {
		if strings.Contains(line, "node router crash") {
			at = i
			break
		}
	}
	if at < 0 || at+1 >= len(lg) {
		t.Fatalf("no crash line followed by a dump in log:\n%s", strings.Join(lg, "\n"))
	}
	var n int
	if _, err := fmt.Sscanf(lg[at+1], "flight recorder: %d span(s) in flight", &n); err != nil {
		t.Fatalf("line after crash = %q, want the flight-recorder header: %v", lg[at+1], err)
	}
	if n <= 0 || n > flightDumpMax {
		t.Fatalf("dump holds %d spans, want 1..%d", n, flightDumpMax)
	}
	if at+2+n > len(lg) {
		t.Fatalf("dump announces %d spans but the log ends after %d lines", n, len(lg)-at-2)
	}
	for _, line := range lg[at+2 : at+2+n] {
		if !strings.HasPrefix(line, "  t") || !strings.Contains(line, " start=") {
			t.Errorf("span line %q not in WriteDump format", line)
		}
	}
	if rest := lg[at+2+n:]; len(rest) == 0 || !strings.Contains(rest[0], "node router restart") {
		t.Errorf("dump not followed by the restart line: %v", rest)
	}
}

func TestInjectorPartitionAndHeal(t *testing.T) {
	net, a, _, b, l1, l2, got := twoLinkTopo(1)
	in := NewInjector(net)
	in.RegisterCut("all", l1, l2)
	plan := NewPlan("split").Add(Event{At: time.Second, Duration: time.Second, Kind: Partition, Target: "all"})
	sendAt(net, a, b.ID, 1500*time.Millisecond)
	sendAt(net, a, b.ID, 2500*time.Millisecond)
	if err := in.Schedule(plan); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if err := net.Sched.RunFor(10 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if *got != 1 {
		t.Errorf("delivered %d, want 1", *got)
	}
	st := in.Stats()
	if st.Partitions != 1 || st.Heals != 1 || st.Total() != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestScheduleRejectsUnknownTargets(t *testing.T) {
	net, _, _, _, l1, _, _ := twoLinkTopo(1)
	in := NewInjector(net)
	in.RegisterLink("access", l1)
	plan := NewPlan("bad").
		Add(Event{Kind: LinkDown, Target: "nope"}).
		Add(Event{Kind: NodeCrash, Target: "ghost"}).
		Add(Event{Kind: Kind(99), Target: "?"})
	err := in.Schedule(plan)
	if err == nil {
		t.Fatal("invalid plan accepted")
	}
	for _, want := range []string{`unknown link "nope"`, `unknown node "ghost"`, "unknown kind"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	if net.Sched.Pending() != 0 {
		t.Error("invalid plan scheduled events anyway")
	}
}

func TestPermanentEventNeverHeals(t *testing.T) {
	net, a, _, b, l1, _, got := twoLinkTopo(1)
	in := NewInjector(net)
	in.RegisterLink("access", l1)
	plan := NewPlan("perm").Add(Event{At: time.Second, Kind: LinkDown, Target: "access"})
	sendAt(net, a, b.ID, time.Hour)
	if err := in.Schedule(plan); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if err := net.Sched.RunFor(2 * time.Hour); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if *got != 0 {
		t.Error("permanent link-down healed itself")
	}
	if st := in.Stats(); st.LinkUps != 0 {
		t.Errorf("LinkUps = %d, want 0", st.LinkUps)
	}
}

func TestInjectorTargets(t *testing.T) {
	net, _, r, _, l1, l2, _ := twoLinkTopo(1)
	in := NewInjector(net)
	in.RegisterLink("wan", l1)
	in.RegisterLink("lan", l2)
	in.RegisterIface("radio", l1.IfaceA())
	in.RegisterNode("router", r, nil, nil)
	in.RegisterCut("backhaul", l1, l2)
	links, ifaces, nodes, cuts := in.Targets()
	if !reflect.DeepEqual(links, []string{"lan", "wan"}) {
		t.Errorf("links = %v", links)
	}
	if !reflect.DeepEqual(ifaces, []string{"radio"}) || !reflect.DeepEqual(nodes, []string{"router"}) || !reflect.DeepEqual(cuts, []string{"backhaul"}) {
		t.Errorf("targets = %v %v %v", ifaces, nodes, cuts)
	}
}

// TestDeterministicFaultLog pins byte-identical replay: same seed, same
// random plan, same applied-fault log.
func TestDeterministicFaultLog(t *testing.T) {
	run := func() []string {
		net, a, r, b, l1, l2, _ := twoLinkTopo(11)
		in := NewInjector(net)
		in.RegisterLink("l1", l1)
		in.RegisterLink("l2", l2)
		in.RegisterIface("a0", l1.IfaceA())
		in.RegisterNode("r", r, nil, nil)
		in.RegisterCut("cut", l1, l2)
		links, ifaces, nodes, cuts := in.Targets()
		plan := RandomPlan(11, RandomConfig{
			Horizon: 20 * time.Second, Events: 15,
			Links: links, Ifaces: ifaces, Nodes: nodes, Cuts: cuts,
		})
		for i := 0; i < 40; i++ {
			sendAt(net, a, b.ID, time.Duration(i)*500*time.Millisecond)
		}
		if err := in.Schedule(plan); err != nil {
			t.Fatalf("Schedule: %v", err)
		}
		if err := net.Sched.RunFor(time.Minute); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return in.Log()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("fault logs differ across identical runs:\n%v\n%v", a, b)
	}
	if len(a) == 0 {
		t.Error("no faults applied")
	}
}

// TestSyncCrashFiresOnSessionStart pins the crash-during-sync event: the
// node stays healthy until its sync machinery reports a session start,
// then crashes at exactly that moment and restarts Duration later.
func TestSyncCrashFiresOnSessionStart(t *testing.T) {
	net, a, _, b, _, _, got := twoLinkTopo(5)
	in := NewInjector(net)
	crashed, restarted := 0, 0
	var fire func()
	in.RegisterSyncTrigger("dev", a,
		func() { crashed++ },
		func() { restarted++ },
		func(f func()) { fire = f },
	)
	plan := NewPlan("sync-crash").Add(Event{
		At: time.Second, Duration: 2 * time.Second, Kind: SyncCrash, Target: "dev",
	})
	if err := in.Schedule(plan); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	// Sessions before the arm time are unaffected; the arm installs fire
	// at t=1s, the session at t=3s trips it.
	sendAt(net, a, b.ID, 500*time.Millisecond)
	net.Sched.At(3*time.Second, func() {
		if fire == nil {
			t.Fatal("trigger not armed by 3s")
		}
		fire()
		fire() // idempotent: a second session start must not double-crash
	})
	sendAt(net, a, b.ID, 4*time.Second) // down window: dropped
	sendAt(net, a, b.ID, 6*time.Second) // after restart: delivered
	if err := net.Sched.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if crashed != 1 || restarted != 1 {
		t.Errorf("crashed=%d restarted=%d, want 1/1", crashed, restarted)
	}
	st := in.Stats()
	if st.SyncCrashArms != 1 || st.SyncCrashes != 1 {
		t.Errorf("stats arms=%d crashes=%d, want 1/1", st.SyncCrashArms, st.SyncCrashes)
	}
	if *got != 2 {
		t.Errorf("delivered %d packets, want 2 (one pre-crash, one post-restart)", *got)
	}
	// An armed trigger with no session never crashes.
	in2 := NewInjector(net)
	in2.RegisterSyncTrigger("idle", b, nil, nil, func(func()) {})
	if err := in2.Schedule(NewPlan("idle").Add(Event{Kind: SyncCrash, Target: "idle"})); err != nil {
		t.Fatal(err)
	}
	if err := net.Sched.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if in2.Stats().SyncCrashes != 0 {
		t.Error("idle trigger crashed without a session")
	}
}
