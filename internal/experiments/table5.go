package experiments

import (
	"time"

	"mcommerce/internal/cellular"
	"mcommerce/internal/mtcp"
	"mcommerce/internal/simnet"
	"mcommerce/internal/wireless"
)

// cellularMeasure runs a TCP download on one cellular standard and returns
// (setup latency, goodput bps, ok). Setup is the call establishment for
// circuit-switched standards or the attach for packet-switched ones.
func cellularMeasure(seed int64, std cellular.Standard, window time.Duration) (time.Duration, float64, bool) {
	if !std.SupportsData() {
		return 0, 0, false
	}
	net := simnet.NewNetwork(simnet.NewScheduler(seed))
	server := net.NewNode("server")
	bts := net.NewNode("bts")
	mobNode := net.NewNode("mobile")
	wired := simnet.Connect(server, bts, simnet.LinkConfig{
		Rate: 100 * simnet.Mbps, Delay: 10 * time.Millisecond, QueueLen: 1 << 16,
	})
	server.SetDefaultRoute(wired.IfaceA())

	cfg := cellular.DefaultConfig()
	cfg.QueueLen = 256
	cn := cellular.New(net, std, cfg)
	cn.AddCell(bts, wireless.Position{})
	mob := cn.AddMobile(mobNode, wireless.Position{X: 1000})
	bts.SetRoute(server.ID, wired.IfaceB())

	ss := mtcp.MustNewStack(server)
	ms := mtcp.MustNewStack(mobNode)
	d := &download{sched: net.Sched, size: 8 << 20}
	if err := d.listen(ms); err != nil {
		return 0, 0, false
	}

	var setup time.Duration
	start := func() {
		setup = net.Sched.Now()
		d.dial(ss, ms, mtcp.Options{})
	}
	var err error
	if std.Switching == cellular.CircuitSwitched {
		err = mob.PlaceCall(start)
	} else {
		err = mob.Attach(start)
	}
	if err != nil {
		return 0, 0, false
	}
	d.run(window)
	transfer := net.Sched.Now() - setup
	if transfer <= 0 {
		return setup, 0, true
	}
	return setup, d.bps(transfer), true
}

// Table5 reproduces "Major cellular wireless networks": every standard's
// generation/radio/switching columns from the paper plus measured
// behaviour — data service availability (1G analog carries none), setup
// latency (circuit call establishment vs packet always-on attach), and
// achieved TCP goodput (GPRS ≈ 100 kbps, EDGE ≈ 384 kbps, 3G ≈ 2 Mbps).
func Table5(seed int64) *Result {
	res := newResult("Table 5", "Major cellular wireless networks",
		"generation", "standard", "radio channels", "switching", "data service",
		"setup", "goodput")

	const window = 30 * time.Second
	for _, std := range cellular.Standards() {
		if !std.SupportsData() {
			res.AddRow(string(std.Generation), std.Name, string(std.Radio),
				string(std.Switching), "none (voice only)", "-", "-")
			res.Set(std.Name+"/bps", 0)
			continue
		}
		setup, bps, ok := cellularMeasure(seed, std, window)
		if !ok {
			res.AddRow(string(std.Generation), std.Name, string(std.Radio),
				string(std.Switching), "error", "-", "-")
			continue
		}
		kind := "circuit data call"
		if std.Switching == cellular.PacketSwitched {
			kind = "packet, always-on"
		}
		res.AddRow(string(std.Generation), std.Name, string(std.Radio),
			string(std.Switching), kind, fmtDur(setup), fmtRate(bps))
		res.Set(std.Name+"/bps", bps)
		res.Set(std.Name+"/setup_ms", float64(setup.Milliseconds()))
	}
	res.Note("1G analog standards carry no mobile commerce data (they 'will not play a significant role')")
	res.Note("goodput ordering follows the generations: 2G < 2.5G < 3G; circuit standards pay call setup before any data moves")
	return res
}
