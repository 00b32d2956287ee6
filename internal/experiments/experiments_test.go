package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mcommerce/internal/apps"
	"mcommerce/internal/cellular"
	"mcommerce/internal/mtcp"
	"mcommerce/internal/wireless"
)

func TestFigure1Shape(t *testing.T) {
	res := Figure1(1)
	if res.Get("transactions_ok") != 3 {
		t.Errorf("transactions_ok = %v", res.Get("transactions_ok"))
	}
	// Four component kinds, six component instances (3 desktops).
	if res.Get("components") != 6 {
		t.Errorf("components = %v", res.Get("components"))
	}
	if !strings.Contains(res.String(), "structure valid") {
		t.Error("EC structure did not validate")
	}
}

func TestFigure2Shape(t *testing.T) {
	res := Figure2(1)
	if res.Get("wap_ok") != 1 || res.Get("imode_ok") != 1 {
		t.Errorf("transactions: wap=%v imode=%v", res.Get("wap_ok"), res.Get("imode_ok"))
	}
	if !strings.Contains(res.String(), "structure valid") {
		t.Error("MC structure did not validate")
	}
	// 1 app + 1 host + 1 wired + 1 wireless + 2 middleware + 5 stations.
	if res.Get("components") != 11 {
		t.Errorf("components = %v", res.Get("components"))
	}
}

func TestTable1AllCategoriesComplete(t *testing.T) {
	res := Table1(1)
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(res.Rows))
	}
	// Expected op counts per workload (see table1.go sequences).
	want := map[string]float64{
		"Commerce":                           8,
		"Education":                          4,
		"Enterprise resource planning":       3,
		"Entertainment":                      2,
		"Health care":                        3,
		"Inventory tracking and dispatching": 4,
		"Traffic":                            3,
		"Travel and ticketing":               3,
	}
	for cat, n := range want {
		if got := res.Get(cat + "/ops"); got != n {
			t.Errorf("%s ops = %v, want %v", cat, got, n)
		}
	}
}

func TestTable2RenderScalesWithCPU(t *testing.T) {
	res := Table2(1)
	// Faster CPU -> faster render, per Table 2's processor column.
	order := []string{"Toshiba E740", "Compaq iPAQ H3870", "SONY Clie PEG-NR70V", "Nokia 9290 Communicator", "Palm i705"}
	for i := 1; i < len(order); i++ {
		faster := res.Get(order[i-1] + "/render_us")
		slower := res.Get(order[i] + "/render_us")
		if res.Get(order[i-1]+"/ok") != 1 || res.Get(order[i]+"/ok") != 1 {
			t.Fatalf("device measurement failed: %s or %s", order[i-1], order[i])
		}
		if faster >= slower {
			t.Errorf("render(%s)=%v not below render(%s)=%v", order[i-1], faster, order[i], slower)
		}
	}
}

func TestTable3MiddlewareComparison(t *testing.T) {
	res := Table3(1)
	// WAP's first transaction pays the session handshake; i-mode is
	// always-on.
	if res.Get("wap_first_ms") <= res.Get("imode_first_ms") {
		t.Errorf("WAP first (%v ms) should exceed i-mode first (%v ms)",
			res.Get("wap_first_ms"), res.Get("imode_first_ms"))
	}
	// Both payloads exist and the binary-encoded WML deck is the smaller.
	if res.Get("wap_bytes") <= 0 || res.Get("imode_bytes") <= 0 {
		t.Fatalf("payloads: wap=%v imode=%v", res.Get("wap_bytes"), res.Get("imode_bytes"))
	}
	if res.Get("wap_bytes") >= res.Get("imode_bytes") {
		t.Errorf("WMLC payload (%v) should be below cHTML payload (%v)",
			res.Get("wap_bytes"), res.Get("imode_bytes"))
	}
}

func TestTable4WLANOrderings(t *testing.T) {
	res := Table4(1)
	bt := res.Get("Bluetooth/near_bps")
	b11 := res.Get("802.11b (Wi-Fi)/near_bps")
	a11 := res.Get("802.11a/near_bps")
	if !(bt < b11 && b11 < a11) {
		t.Errorf("near goodput ordering: bluetooth=%v 802.11b=%v 802.11a=%v", bt, b11, a11)
	}
	for _, std := range wireless.Standards() {
		near := res.Get(std.Name + "/near_bps")
		mid := res.Get(std.Name + "/mid_bps")
		far := res.Get(std.Name + "/far_bps")
		beyond := res.Get(std.Name + "/beyond_bps")
		if !(near >= mid && mid >= far) {
			t.Errorf("%s: goodput not monotone with distance: %v %v %v", std.Name, near, mid, far)
		}
		if far <= 0 {
			t.Errorf("%s: no goodput inside range", std.Name)
		}
		if beyond != 0 {
			t.Errorf("%s: delivery beyond typical range: %v", std.Name, beyond)
		}
	}
}

func TestTable5CellularOrderings(t *testing.T) {
	res := Table5(1)
	if res.Get("AMPS/bps") != 0 || res.Get("TACS/bps") != 0 {
		t.Error("1G analog standards must carry no data")
	}
	gsm := res.Get("GSM/bps")
	gprs := res.Get("GPRS/bps")
	edge := res.Get("EDGE/bps")
	wcdma := res.Get("WCDMA/bps")
	if !(gsm > 0 && gsm < gprs && gprs < edge && edge < wcdma) {
		t.Errorf("generation ordering violated: GSM=%v GPRS=%v EDGE=%v WCDMA=%v", gsm, gprs, edge, wcdma)
	}
	// Circuit-switched setup (call establishment) exceeds packet attach.
	if res.Get("GSM/setup_ms") <= res.Get("GPRS/setup_ms") {
		t.Errorf("circuit setup (%v ms) should exceed packet attach (%v ms)",
			res.Get("GSM/setup_ms"), res.Get("GPRS/setup_ms"))
	}
}

// TestTCPVariantsHonourCC pins that -cc reaches every E-TCP(a) wired
// sender: under CUBIC no variant's fixed endpoint may stay on Reno.
func TestTCPVariantsHonourCC(t *testing.T) {
	defer func(old string) { CC = old }(CC)
	CC = mtcp.CCCubic
	for _, v := range tcpSweepVariants {
		p := newTCPPath(1, 0.01)
		d := &download{sched: p.net.Sched, size: 64 << 10}
		if !p.setupVariant(v, mtcp.Options{}, d) {
			t.Fatalf("%s: setup failed", v)
		}
		if err := p.net.Sched.RunUntil(time.Second); err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if d.send == nil {
			t.Errorf("%s: no fixed sender after 1s", v)
			continue
		}
		if got := d.send.CCName(); got != mtcp.CCCubic {
			t.Errorf("%s: fixed sender runs %q under -cc cubic", v, got)
		}
	}
}

// TestHandoffAndMobileIPHonourCC pins that -cc reaches the E-TCP(c) and
// E-MIP endpoints: the same transfer completes at a different time under
// CUBIC than under Reno.
func TestHandoffAndMobileIPHonourCC(t *testing.T) {
	defer func(old string) { CC = old }(CC)
	run := func(cc string) (handoff, mip time.Duration) {
		CC = cc
		handoff, _ = blackoutRun(1, 1536<<10, time.Second, 400*time.Millisecond, 2*time.Second, false, 30*time.Minute)
		_, mip, _, _, _ = mipRun(1, true, true, 400<<10, 2*time.Minute)
		return handoff, mip
	}
	renoHandoff, renoMIP := run(mtcp.CCReno)
	cubicHandoff, cubicMIP := run(mtcp.CCCubic)
	if renoHandoff == 0 || renoHandoff == cubicHandoff {
		t.Errorf("E-TCP(c) download: reno %v, cubic %v; want two different completion times", renoHandoff, cubicHandoff)
	}
	if renoMIP == 0 || renoMIP == cubicMIP {
		t.Errorf("E-MIP tunneled transfer: reno %v, cubic %v; want two different completion times", renoMIP, cubicMIP)
	}
}

// TestLinkExperimentsHonourCC pins that -cc reaches the Table 4 WLAN,
// Table 5 cellular, E-ADHOC mesh and E-STREAM endpoints: each world's
// transfer measures differently under CUBIC than under Reno.
func TestLinkExperimentsHonourCC(t *testing.T) {
	defer func(old string) { CC = old }(CC)
	type measures struct {
		wlan, cell, mesh float64
		stream           apps.StreamStats
	}
	run := func(cc string) measures {
		CC = cc
		var m measures
		m.wlan = wlanGoodput(1, wireless.IEEE80211b, 0.3*wireless.IEEE80211b.RangeMax, 3*time.Second)
		_, m.cell, _ = cellularMeasure(1, cellular.WCDMA, 30*time.Second)
		m.mesh, _ = adhocRun(1, 2)
		m.stream, _ = streamRun(1, cellular.GPRS)
		return m
	}
	reno, cubic := run(mtcp.CCReno), run(mtcp.CCCubic)
	if reno.wlan == 0 || reno.wlan == cubic.wlan {
		t.Errorf("Table 4 WLAN goodput: reno %v, cubic %v; want two different values", reno.wlan, cubic.wlan)
	}
	if reno.cell == 0 || reno.cell == cubic.cell {
		t.Errorf("Table 5 cellular goodput: reno %v, cubic %v; want two different values", reno.cell, cubic.cell)
	}
	if reno.mesh == 0 || reno.mesh == cubic.mesh {
		t.Errorf("E-ADHOC mesh goodput: reno %v, cubic %v; want two different values", reno.mesh, cubic.mesh)
	}
	if !reno.stream.Finished || reno.stream == cubic.stream {
		t.Errorf("E-STREAM playback: reno %+v, cubic %+v; want two different reports", reno.stream, cubic.stream)
	}
}

func TestTCPVariantClaims(t *testing.T) {
	results := TCPVariants(1)
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	sweep, recon := results[0], results[1]

	// At heavy wireless loss the paper-cited optimizations beat Reno.
	reno := sweep.Get("TCP (end-to-end Reno)@0.100/goodput_bps")
	itcp := sweep.Get("I-TCP (split connection)@0.100/goodput_bps")
	snoop := sweep.Get("Snoop (packet caching)@0.100/goodput_bps")
	if !(reno < itcp && reno < snoop) {
		t.Errorf("at 10%% loss: reno=%v itcp=%v snoop=%v — optimizations must win", reno, itcp, snoop)
	}
	// Snoop shields the fixed sender from wireless retransmissions.
	renoRtx := sweep.Get("TCP (end-to-end Reno)@0.100/retransmits")
	snoopRtx := sweep.Get("Snoop (packet caching)@0.100/retransmits")
	if snoopRtx >= renoRtx {
		t.Errorf("snoop sender retransmits %v not below reno's %v", snoopRtx, renoRtx)
	}
	// Everything still completes (reliability is preserved).
	for _, v := range []string{"TCP (end-to-end Reno)", "I-TCP (split connection)", "Snoop (packet caching)"} {
		if sweep.Get(v+"@0.100/completed") != 1 {
			t.Errorf("%s did not complete at 10%% loss", v)
		}
	}

	// Fast retransmission after reconnection recovers sooner.
	if recon.Get("fastrx/idle_ms") >= recon.Get("rto/idle_ms") {
		t.Errorf("reconnect idle: fastrx=%v rto=%v", recon.Get("fastrx/idle_ms"), recon.Get("rto/idle_ms"))
	}
	if recon.Get("fastrx/elapsed_ms") >= recon.Get("rto/elapsed_ms") {
		t.Errorf("transfer time: fastrx=%v rto=%v", recon.Get("fastrx/elapsed_ms"), recon.Get("rto/elapsed_ms"))
	}
}

func TestTCPFaultPlanClaims(t *testing.T) {
	results := TCPFaultPlan(1)
	if len(results) != 1 {
		t.Fatalf("results = %d", len(results))
	}
	r := results[0]

	// Every variant finishes the 2 MB transfer inside the horizon.
	variants := []string{"TCP (end-to-end Reno)", "Snoop (packet caching)", "I-TCP (split connection)", "TCP + fast reconnect [2]"}
	for _, v := range variants {
		if r.Get(v+"/completed") != 1 {
			t.Errorf("%s did not complete under the fault plan", v)
		}
	}
	// The gateway schemes shield the wired sender: its retransmission
	// overhead stays below the end-to-end baseline.
	renoRtx := r.Get("TCP (end-to-end Reno)/rtx_overhead")
	if snoop := r.Get("Snoop (packet caching)/rtx_overhead"); snoop >= renoRtx {
		t.Errorf("snoop sender rtx overhead %v not below reno's %v", snoop, renoRtx)
	}
	if itcp := r.Get("I-TCP (split connection)/rtx_overhead"); itcp >= renoRtx {
		t.Errorf("i-tcp sender rtx overhead %v not below reno's %v", itcp, renoRtx)
	}
	// Fast reconnect recovers from the first blackout faster than the
	// baseline's backed-off RTO wait.
	renoRec := r.Get("TCP (end-to-end Reno)/recovery0_ms")
	fastRec := r.Get("TCP + fast reconnect [2]/recovery0_ms")
	if !(renoRec > 0 && fastRec > 0 && fastRec < renoRec) {
		t.Errorf("recovery after first blackout: fastrx=%vms reno=%vms", fastRec, renoRec)
	}
}

func TestHandoffSweepShape(t *testing.T) {
	res := HandoffSweep(1)
	// Disconnections slow the transfer down monotonically for plain TCP.
	none := res.Get("period_0s/plain_ms")
	rare := res.Get("period_5s/plain_ms")
	frequent := res.Get("period_1s/plain_ms")
	if !(none > 0 && none <= rare && rare < frequent) {
		t.Errorf("plain TCP times: none=%v 5s=%v 1s=%v — not monotone", none, rare, frequent)
	}
	// At high disconnection frequency [2] wins decisively.
	fastFrequent := res.Get("period_1s/fast_ms")
	if fastFrequent >= frequent {
		t.Errorf("reconnect signal at 1s period: %v not below plain %v", fastFrequent, frequent)
	}
	if improvement := 1 - fastFrequent/frequent; improvement < 0.25 {
		t.Errorf("improvement at 1s period only %.0f%%", improvement*100)
	}
}

func TestAdHocHopsShape(t *testing.T) {
	res := AdHocHops(1)
	prev := 0.0
	for hops := 1; hops <= 5; hops++ {
		g := res.Get(fmt.Sprintf("hops_%d/goodput_bps", hops))
		if g <= 0 {
			t.Fatalf("no goodput at %d hops", hops)
		}
		if hops > 1 && g >= prev {
			t.Errorf("goodput at %d hops (%v) not below %d hops (%v)", hops, g, hops-1, prev)
		}
		prev = g
	}
	// Latency grows with hops.
	if res.Get("hops_5/http_ms") <= res.Get("hops_1/http_ms") {
		t.Error("HTTP latency did not grow with hop count")
	}
	// Shared-channel decay: 5 hops should cost at least 3x.
	if ratio := res.Get("hops_1/goodput_bps") / res.Get("hops_5/goodput_bps"); ratio < 3 {
		t.Errorf("1-hop/5-hop goodput ratio = %.1f, want >= 3", ratio)
	}
}

func TestMobileIPClaims(t *testing.T) {
	res := MobileIPRoaming(1)
	if res.Get("baseline/completed") != 1 {
		t.Error("baseline transfer failed")
	}
	if res.Get("nomip/completed") != 0 {
		t.Error("transfer survived a move WITHOUT Mobile IP — tunneling is not being exercised")
	}
	if res.Get("mip/completed") != 1 {
		t.Error("transfer failed WITH Mobile IP")
	}
	if res.Get("mip/tunneled") == 0 {
		t.Error("no datagrams tunneled")
	}
}

func TestAblationClaims(t *testing.T) {
	results := Ablations(1)
	if len(results) != 5 {
		t.Fatalf("ablations = %d", len(results))
	}
	wmlc, qos, sec, sync, sar := results[0], results[1], results[2], results[3], results[4]
	if sar.Get("sar_completed") != 5 {
		t.Errorf("SAR completed %v/5", sar.Get("sar_completed"))
	}
	if sar.Get("whole_completed") > sar.Get("sar_completed") {
		t.Errorf("whole-message (%v) beat SAR (%v)", sar.Get("whole_completed"), sar.Get("sar_completed"))
	}

	if wmlc.Get("wmlc_bytes") >= wmlc.Get("wml_bytes") {
		t.Errorf("WMLC %v not below WML %v", wmlc.Get("wmlc_bytes"), wmlc.Get("wml_bytes"))
	}
	if qos.Get("qos_max_ms") >= qos.Get("fifo_max_ms") {
		t.Errorf("QoS max voice delay %v not below FIFO %v", qos.Get("qos_max_ms"), qos.Get("fifo_max_ms"))
	}
	if qos.Get("qos_bulk") != qos.Get("fifo_bulk") {
		t.Errorf("QoS changed bulk delivery: %v vs %v", qos.Get("qos_bulk"), qos.Get("fifo_bulk"))
	}
	if sec.Get("secure_bytes") <= sec.Get("plain_bytes") {
		t.Error("security added no bytes")
	}
	if sec.Get("secure_ms") <= sec.Get("plain_ms") {
		t.Error("security added no time")
	}
	if sync.Get("sync_delivered") != 60 {
		t.Errorf("sync delivered %v/60", sync.Get("sync_delivered"))
	}
	if sync.Get("online_delivered") >= 60 {
		t.Errorf("always-online delivered %v; blackouts should lose some", sync.Get("online_delivered"))
	}
}

func TestStreamingCrossoverAtMediaRate(t *testing.T) {
	res := Streaming(1)
	// Bearers below the 128 kbps media rate stall; bearers above play
	// cleanly — the crossover falls between GPRS and EDGE.
	for _, slow := range []string{"CDMA", "GPRS"} {
		if res.Get(slow+"/finished") != 1 {
			t.Errorf("%s did not finish", slow)
			continue
		}
		if res.Get(slow+"/stalls") == 0 {
			t.Errorf("%s streamed a 128 kbps clip without stalling", slow)
		}
	}
	for _, fast := range []string{"EDGE", "WCDMA"} {
		if res.Get(fast+"/finished") != 1 {
			t.Errorf("%s did not finish", fast)
			continue
		}
		if res.Get(fast+"/stalls") != 0 {
			t.Errorf("%s stalled %v times", fast, res.Get(fast+"/stalls"))
		}
	}
	if res.Get("WCDMA/startup_ms") > res.Get("GPRS/startup_ms") {
		t.Error("WCDMA startup not faster than GPRS")
	}
}

func TestCapacitySaturationShape(t *testing.T) {
	res := Capacity(1)
	// WLAN scales: throughput grows with users, p95 stays in the same
	// ballpark.
	w2 := res.Get("802.11b WLAN/2/throughput")
	w25 := res.Get("802.11b WLAN/25/throughput")
	if !(w2 > 0 && w25 > 5*w2) {
		t.Errorf("WLAN throughput did not scale: %v -> %v", w2, w25)
	}
	wp2 := res.Get("802.11b WLAN/2/p95_ms")
	wp25 := res.Get("802.11b WLAN/25/p95_ms")
	if wp25 > 3*wp2 {
		t.Errorf("WLAN p95 degraded under load: %v -> %v ms", wp2, wp25)
	}
	// GPRS saturates: p95 blows up with the population, and throughput
	// stops scaling anywhere near linearly.
	gp2 := res.Get("GPRS cell/2/p95_ms")
	gp25 := res.Get("GPRS cell/25/p95_ms")
	if gp25 < 2*gp2 {
		t.Errorf("GPRS p95 did not degrade: %v -> %v ms", gp2, gp25)
	}
	g2 := res.Get("GPRS cell/2/throughput")
	g25 := res.Get("GPRS cell/25/throughput")
	if g25 > 8*g2 {
		t.Errorf("GPRS throughput scaled implausibly: %v -> %v", g2, g25)
	}
}

func TestRegistryCoversAllExperiments(t *testing.T) {
	reg := Registry()
	for _, name := range Names() {
		if _, ok := reg[name]; !ok {
			t.Errorf("registry missing %q", name)
		}
	}
	if len(reg) != len(Names()) {
		t.Errorf("registry has %d entries, Names has %d", len(reg), len(Names()))
	}
}

func TestResultStringRendering(t *testing.T) {
	res := newResult("X", "title", "a", "bb")
	res.AddRow("1", "2")
	res.Note("hello")
	out := res.String()
	for _, want := range []string{"== X — title ==", "a", "bb", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// Determinism: the same seed yields identical measured values.
func TestExperimentsDeterministic(t *testing.T) {
	a := Table5(7)
	b := Table5(7)
	for _, std := range cellular.Standards() {
		if a.Get(std.Name+"/bps") != b.Get(std.Name+"/bps") {
			t.Errorf("%s: %v != %v across identical seeds", std.Name, a.Get(std.Name+"/bps"), b.Get(std.Name+"/bps"))
		}
	}
}
