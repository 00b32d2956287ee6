package experiments

import (
	"fmt"
	"time"

	"mcommerce/internal/adhoc"
	"mcommerce/internal/mtcp"
	"mcommerce/internal/simnet"
	"mcommerce/internal/webserver"
	"mcommerce/internal/wireless"
)

// AdHocHops measures the paper's Section 6.1 ad hoc mode quantitatively:
// TCP goodput and HTTP request latency across a multi-hop device mesh as a
// function of hop count. The classic shape: goodput falls roughly as 1/h
// because every hop re-transmits the same bytes on the one shared channel.
func AdHocHops(seed int64) *Result {
	res := newResult("E-ADHOC", "Ad hoc mesh: TCP goodput and HTTP latency vs hop count (802.11b, no APs)",
		"hops", "TCP goodput (200 KB)", "HTTP request latency", "relative goodput")

	var oneHop float64
	for hops := 1; hops <= 5; hops++ {
		goodput, httpLat := adhocRun(seed, hops)
		if hops == 1 {
			oneHop = goodput
		}
		rel := "-"
		if oneHop > 0 {
			rel = fmt.Sprintf("%.2fx", goodput/oneHop)
		}
		res.AddRow(fmt.Sprint(hops), fmtRate(goodput), fmtDur(httpLat), rel)
		res.Set(fmt.Sprintf("hops_%d/goodput_bps", hops), goodput)
		res.Set(fmt.Sprintf("hops_%d/http_ms", hops), float64(httpLat.Milliseconds()))
	}
	res.Note("every relay repeats each frame on the same shared channel, so goodput decays roughly as 1/hops — the cost of infrastructure-free operation")
	return res
}

// adhocRun builds a line mesh with the given hop count between endpoints
// and measures a 200 KB TCP transfer plus one small HTTP round trip.
func adhocRun(seed int64, hops int) (goodputBps float64, httpLat time.Duration) {
	net := simnet.NewNetwork(simnet.NewScheduler(seed))
	cfg := wireless.DefaultConfig()
	cfg.BitErrorRate = 0
	cfg.AdHoc = true
	lan := wireless.NewLAN(net, wireless.IEEE80211b, cfg)

	n := hops + 1
	nodes := make([]*simnet.Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = net.NewNode(fmt.Sprintf("dev-%d", i))
		st := lan.AddStation(nodes[i], wireless.Position{X: float64(i) * 80})
		r, err := adhoc.NewRouter(nodes[i], st.Radio())
		if err != nil {
			return 0, 0
		}
		r.EnableTransparentForwarding()
	}
	src, dst := nodes[0], nodes[n-1]

	srcStack := mtcp.MustNewStack(src)
	dstStack := mtcp.MustNewStack(dst)

	// TCP bulk transfer. The scheduler keeps running after it for the
	// HTTP round trip, so the download does not stop it.
	d := &download{sched: net.Sched, size: 200 << 10}
	if err := d.start(srcStack, dstStack, mtcp.Options{RTOInitial: 500 * time.Millisecond}); err != nil {
		return 0, 0
	}
	d.run(5 * time.Minute)
	if d.doneAt == 0 {
		return 0, 0
	}
	goodputBps = d.bps(d.doneAt)

	// One small HTTP round trip on warm routes.
	srv, err := webserver.New(dstStack, 8080, ccOpts(mtcp.Options{}))
	if err != nil {
		return goodputBps, 0
	}
	srv.Handle("/ping", func(r *webserver.Request) *webserver.Response {
		return webserver.Text("pong")
	})
	client := webserver.NewClient(srcStack, ccOpts(mtcp.Options{RTOInitial: 500 * time.Millisecond}))
	start := net.Sched.Now()
	client.Get(simnet.Addr{Node: dst.ID, Port: 8080}, "/ping", nil, func(r *webserver.Response, err error) {
		if err == nil {
			httpLat = net.Sched.Now() - start
		}
	})
	if err := net.Sched.RunFor(time.Minute); err != nil {
		return goodputBps, 0
	}
	return goodputBps, httpLat
}
