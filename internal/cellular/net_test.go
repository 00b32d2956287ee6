package cellular

import (
	"slices"
	"testing"
	"time"

	"mcommerce/internal/simnet"
	"mcommerce/internal/wireless"
)

// cellTopo builds: server --wired-- bts ))) mobile.
func cellTopo(t testing.TB, std Standard, cfg Config) (
	*simnet.Network, *Net, *simnet.Node, *Cell, *Mobile,
) {
	t.Helper()
	simn := simnet.NewNetwork(simnet.NewScheduler(1))
	server := simn.NewNode("server")
	btsNode := simn.NewNode("bts")
	mobNode := simn.NewNode("mobile")

	// Deep wired queue so the cell, not the backhaul, is the bottleneck.
	wired := simnet.Connect(server, btsNode, simnet.LinkConfig{
		Rate: 10 * simnet.Mbps, Delay: 20 * time.Millisecond, QueueLen: 1 << 20,
	})
	server.SetDefaultRoute(wired.IfaceA())

	cn := New(simn, std, cfg)
	cell := cn.AddCell(btsNode, wireless.Position{})
	mob := cn.AddMobile(mobNode, wireless.Position{X: 1000})
	btsNode.SetRoute(server.ID, wired.IfaceB())
	return simn, cn, server, cell, mob
}

func ctl(src, dst *simnet.Node, bytes int) *simnet.Packet {
	return &simnet.Packet{
		Src: simnet.Addr{Node: src.ID}, Dst: simnet.Addr{Node: dst.ID},
		Proto: simnet.ProtoControl, Bytes: bytes,
	}
}

func TestAnalog1GCarriesNoData(t *testing.T) {
	_, _, _, _, mob := cellTopo(t, AMPS, DefaultConfig())
	if err := mob.PlaceCall(nil); err != ErrNoDataService {
		t.Errorf("PlaceCall on AMPS = %v, want ErrNoDataService", err)
	}
}

func TestCircuitCallRequiredBeforeData(t *testing.T) {
	simn, cn, server, _, mob := cellTopo(t, GSM, DefaultConfig())
	got := 0
	server.Bind(simnet.ProtoControl, func(p *simnet.Packet) { got++ })
	// No call yet: data is dropped at the radio.
	mob.node.Send(ctl(mob.node, server, 100))
	if err := simn.Sched.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 0 || cn.LostRange == 0 {
		t.Fatalf("data moved without a call: got=%d lost=%d", got, cn.LostRange)
	}
}

func TestCircuitCallSetupThenData(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BitErrorRate = 0
	simn, _, server, cell, mob := cellTopo(t, GSM, cfg)
	got := 0
	var setupDone time.Duration
	server.Bind(simnet.ProtoControl, func(p *simnet.Packet) { got++ })
	if err := mob.PlaceCall(func() {
		setupDone = simn.Sched.Now()
		mob.node.Send(ctl(mob.node, server, 120)) // 100 ms at 9.6 kbps
	}); err != nil {
		t.Fatalf("PlaceCall: %v", err)
	}
	if cell.CallsInUse() != 1 {
		t.Errorf("CallsInUse = %d, want 1", cell.CallsInUse())
	}
	if err := simn.Sched.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 1 {
		t.Fatalf("delivered %d, want 1", got)
	}
	if setupDone != circuitSetup {
		t.Errorf("call setup at %v, want %v", setupDone, circuitSetup)
	}
	mob.HangUp()
	if cell.CallsInUse() != 0 {
		t.Errorf("CallsInUse after hangup = %d", cell.CallsInUse())
	}
}

func TestCircuitBlockingWhenChannelsExhausted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChannelsPerCell = 2
	simn, cn, _, cell, mob := cellTopo(t, GSM, cfg)
	cell.OccupyChannels(2) // voice load fills the cell
	if err := mob.PlaceCall(nil); err != ErrBlocked {
		t.Fatalf("PlaceCall = %v, want ErrBlocked", err)
	}
	if cn.BlockedCalls != 1 {
		t.Errorf("BlockedCalls = %d, want 1", cn.BlockedCalls)
	}
	cell.ReleaseChannels(1)
	if err := mob.PlaceCall(nil); err != nil {
		t.Fatalf("PlaceCall after release: %v", err)
	}
	_ = simn
}

func TestPacketAttachThenAlwaysOn(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BitErrorRate = 0
	simn, _, server, _, mob := cellTopo(t, GPRS, cfg)
	got := 0
	server.Bind(simnet.ProtoControl, func(p *simnet.Packet) { got++ })
	if mob.Attached() {
		t.Fatal("attached before Attach")
	}
	var attachedAt time.Duration
	if err := mob.Attach(func() {
		attachedAt = simn.Sched.Now()
		mob.node.Send(ctl(mob.node, server, 125))
	}); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if err := simn.Sched.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 1 {
		t.Fatalf("delivered %d, want 1", got)
	}
	if attachedAt != attachLatency {
		t.Errorf("attach completed at %v, want %v", attachedAt, attachLatency)
	}
	if !mob.Attached() {
		t.Error("not always-on after attach")
	}
	// Second attach is a no-op and completes immediately.
	ran := false
	if err := mob.Attach(func() { ran = true }); err != nil || !ran {
		t.Errorf("re-attach: err=%v ran=%v", err, ran)
	}
}

func TestAttachOnCircuitStandardFails(t *testing.T) {
	_, _, _, _, mob := cellTopo(t, GSM, DefaultConfig())
	if err := mob.Attach(nil); err != ErrNotPacketSwitched {
		t.Errorf("Attach on GSM = %v, want ErrNotPacketSwitched", err)
	}
}

func TestPlaceCallOnPacketStandardFails(t *testing.T) {
	_, _, _, _, mob := cellTopo(t, GPRS, DefaultConfig())
	if err := mob.PlaceCall(nil); err == nil {
		t.Error("PlaceCall on GPRS should fail")
	}
}

// measureRate runs a saturating downlink and returns achieved goodput.
func measureRate(t *testing.T, std Standard) simnet.Rate {
	t.Helper()
	cfg := DefaultConfig()
	cfg.BitErrorRate = 0
	cfg.QueueLen = 10000
	simn, _, server, _, mob := cellTopo(t, std, cfg)
	bytes := 0
	mob.node.Bind(simnet.ProtoControl, func(p *simnet.Packet) { bytes += p.Bytes })
	start := func() {
		for i := 0; i < 2000; i++ {
			server.Send(ctl(server, mob.node, 500))
		}
	}
	if std.Switching == PacketSwitched {
		if err := mob.Attach(start); err != nil {
			t.Fatalf("Attach: %v", err)
		}
	} else {
		if err := mob.PlaceCall(start); err != nil {
			t.Fatalf("PlaceCall: %v", err)
		}
	}
	const window = 20 * time.Second
	if err := simn.Sched.RunUntil(window); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return simnet.Rate(float64(bytes*8) / window.Seconds())
}

func TestAchievedRatesFollowTable5(t *testing.T) {
	gsm := measureRate(t, GSM)
	gprs := measureRate(t, GPRS)
	edge := measureRate(t, EDGE)
	wcdma := measureRate(t, WCDMA)
	if !(gsm < gprs && gprs < edge && edge < wcdma) {
		t.Errorf("rate ordering violated: GSM=%v GPRS=%v EDGE=%v WCDMA=%v", gsm, gprs, edge, wcdma)
	}
	// GPRS ≈ 100 kbps within 20% (minus setup time and headers).
	if gprs < 70*simnet.Kbps || gprs > 100*simnet.Kbps {
		t.Errorf("GPRS goodput = %v, want ≈ 100 kbps", gprs)
	}
}

func TestPacketCapacityIsShared(t *testing.T) {
	// Two attached mobiles in one GPRS cell split the ~100 kbps.
	cfg := DefaultConfig()
	cfg.BitErrorRate = 0
	cfg.QueueLen = 10000
	simn := simnet.NewNetwork(simnet.NewScheduler(1))
	server := simn.NewNode("server")
	btsNode := simn.NewNode("bts")
	wired := simnet.Connect(server, btsNode, simnet.LinkConfig{
		Rate: 10 * simnet.Mbps, Delay: 20 * time.Millisecond, QueueLen: 1 << 20,
	})
	server.SetDefaultRoute(wired.IfaceA())
	cn := New(simn, GPRS, cfg)
	cn.AddCell(btsNode, wireless.Position{})
	btsNode.SetRoute(server.ID, wired.IfaceB())

	rx := make([]int, 2)
	mobs := make([]*Mobile, 2)
	nodes := make([]*simnet.Node, 2)
	for i := range mobs {
		i := i
		node := simn.NewNode("mob")
		nodes[i] = node
		mobs[i] = cn.AddMobile(node, wireless.Position{X: float64(100 * (i + 1))})
		node.Bind(simnet.ProtoControl, func(p *simnet.Packet) { rx[i] += p.Bytes })
		if err := mobs[i].Attach(nil); err != nil {
			t.Fatalf("Attach: %v", err)
		}
	}
	// Interleave the two flows after both mobiles are attached.
	simn.Sched.After(time.Second, func() {
		for j := 0; j < 1000; j++ {
			server.Send(ctl(server, nodes[0], 500))
			server.Send(ctl(server, nodes[1], 500))
		}
	})
	const window = 20 * time.Second
	if err := simn.Sched.RunUntil(window); err != nil {
		t.Fatalf("Run: %v", err)
	}
	total := simnet.Rate(float64((rx[0]+rx[1])*8) / window.Seconds())
	if total > GPRS.DataRate {
		t.Errorf("aggregate %v exceeds cell capacity %v", total, GPRS.DataRate)
	}
	each := float64(rx[0]) / float64(rx[0]+rx[1])
	if each < 0.35 || each > 0.65 {
		t.Errorf("unfair split: %.2f", each)
	}
}

func TestQoSPrioritizesConversational(t *testing.T) {
	// On WCDMA with QoS, a Conversational mobile's packets jump the queue
	// ahead of a Background bulk transfer.
	cfg := DefaultConfig()
	cfg.BitErrorRate = 0
	cfg.QueueLen = 100000
	simn := simnet.NewNetwork(simnet.NewScheduler(1))
	server := simn.NewNode("server")
	btsNode := simn.NewNode("bts")
	wired := simnet.Connect(server, btsNode, simnet.LAN)
	server.SetDefaultRoute(wired.IfaceA())
	cn := New(simn, WCDMA, cfg)
	cn.AddCell(btsNode, wireless.Position{})
	btsNode.SetRoute(server.ID, wired.IfaceB())

	bulkNode := simn.NewNode("bulk")
	voiceNode := simn.NewNode("voice")
	bulk := cn.AddMobile(bulkNode, wireless.Position{X: 100})
	voice := cn.AddMobile(voiceNode, wireless.Position{X: 200})
	bulk.Class = Background
	voice.Class = Conversational

	var voiceDelays []time.Duration
	voiceNode.Bind(simnet.ProtoControl, func(p *simnet.Packet) {
		voiceDelays = append(voiceDelays, simn.Sched.Now()-p.Sent)
	})
	bulkNode.Bind(simnet.ProtoControl, func(p *simnet.Packet) {})

	if err := bulk.Attach(nil); err != nil {
		t.Fatal(err)
	}
	if err := voice.Attach(nil); err != nil {
		t.Fatal(err)
	}
	simn.Sched.After(time.Second, func() {
		// Saturate with bulk, then trickle voice packets every 20 ms.
		for i := 0; i < 5000; i++ {
			server.Send(ctl(server, bulkNode, 1000))
		}
		for i := 0; i < 50; i++ {
			i := i
			simn.Sched.After(time.Duration(i)*20*time.Millisecond, func() {
				server.Send(ctl(server, voiceNode, 160))
			})
		}
	})
	if err := simn.Sched.RunUntil(10 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(voiceDelays) < 40 {
		t.Fatalf("only %d voice packets delivered", len(voiceDelays))
	}
	var max time.Duration
	for _, d := range voiceDelays {
		if d > max {
			max = d
		}
	}
	// Each voice packet waits at most one in-flight bulk frame
	// (1000B at 2 Mbps = 4 ms) plus its own service time.
	if max > 50*time.Millisecond {
		t.Errorf("max voice delay %v with QoS; should be bounded", max)
	}
}

func TestCellHandoffAndCoverage(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BitErrorRate = 0
	simn := simnet.NewNetwork(simnet.NewScheduler(1))
	cn := New(simn, GPRS, cfg)
	c1 := cn.AddCell(simn.NewNode("bts1"), wireless.Position{X: 0})
	c2 := cn.AddCell(simn.NewNode("bts2"), wireless.Position{X: 8000})
	mob := cn.AddMobile(simn.NewNode("mob"), wireless.Position{X: 1000})
	if mob.Cell() != c1 {
		t.Fatal("should camp on bts1")
	}
	mob.MoveTo(wireless.Position{X: 7000})
	if err := simn.Sched.RunUntil(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if mob.Cell() != c2 {
		t.Error("should have handed off to bts2")
	}
	if cn.Handoffs != 1 {
		t.Errorf("Handoffs = %d, want 1", cn.Handoffs)
	}
	mob.MoveTo(wireless.Position{X: 100000})
	if mob.Cell() != nil {
		t.Error("should be out of coverage")
	}
}

func TestNoCoverageErrors(t *testing.T) {
	simn := simnet.NewNetwork(simnet.NewScheduler(1))
	cn := New(simn, GPRS, DefaultConfig())
	mob := cn.AddMobile(simn.NewNode("mob"), wireless.Position{X: 0}) // no cells at all
	if err := mob.Attach(nil); err != ErrNoCoverage {
		t.Errorf("Attach = %v, want ErrNoCoverage", err)
	}
}

// A QoS transmitter queues by class and, within a class, by arrival; the
// frame already on the air keeps its place.
func TestQoSQueueStableByClass(t *testing.T) {
	_, cn, _, cell, _ := cellTopo(t, WCDMA, DefaultConfig())
	x := &xmitter{net: cn, rate: WCDMA.DataRate, qos: true}
	for i, c := range []QoSClass{Background, Background, Conversational, Interactive, Conversational, Background, Interactive} {
		x.enqueue(&simnet.Packet{Bytes: i + 1}, c, cell.radio)
	}
	var got []int
	for _, f := range x.queue {
		got = append(got, f.p.Bytes)
	}
	if want := []int{3, 5, 4, 7, 2, 6}; x.cur.p.Bytes != 1 || !slices.Equal(got, want) {
		t.Errorf("on air %d, queue %v; want 1 and %v", x.cur.p.Bytes, got, want)
	}
}
