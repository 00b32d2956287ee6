package experiments

import (
	"fmt"
	"time"

	"mcommerce/internal/mtcp"
	"mcommerce/internal/simnet"
	"mcommerce/internal/wireless"
)

// wlanGoodput measures TCP download goodput (bits/s) to a station at the
// given distance on a LAN of the given standard. It returns 0 when the
// station is out of range.
func wlanGoodput(seed int64, std wireless.Standard, dist float64, window time.Duration) float64 {
	net := simnet.NewNetwork(simnet.NewScheduler(seed))
	server := net.NewNode("server")
	apNode := net.NewNode("ap")
	stNode := net.NewNode("station")

	wired := simnet.Connect(server, apNode, simnet.LinkConfig{
		Rate: 1 * simnet.Gbps, Delay: time.Millisecond, QueueLen: 1 << 16,
	})
	server.SetDefaultRoute(wired.IfaceA())

	cfg := wireless.DefaultConfig()
	cfg.QueueLen = 256
	lan := wireless.NewLAN(net, std, cfg)
	lan.AddAP(apNode, wireless.Position{})
	st := lan.AddStation(stNode, wireless.Position{X: dist})
	apNode.SetRoute(server.ID, wired.IfaceB())
	if !st.Associated() {
		return 0
	}

	d := &download{sched: net.Sched, size: 8 << 20}
	if err := d.start(mtcp.MustNewStack(server), mtcp.MustNewStack(stNode), mtcp.Options{}); err != nil {
		return 0
	}
	d.run(window)
	return d.bps(window)
}

// Table4 reproduces "Major WLAN standards": each row carries the paper's
// nominal columns plus measured TCP goodput at three distances and the
// out-of-range check beyond the standard's typical range. The shape to
// reproduce: Bluetooth ≪ 802.11b ≪ the 54 Mbps family, rates step down
// with distance, and delivery stops past the typical range.
func Table4(seed int64) *Result {
	res := newResult("Table 4", "Major WLAN standards",
		"standard", "max rate", "typical range", "modulation/band",
		"goodput near", "goodput mid", "goodput far", "beyond range")

	const window = 3 * time.Second
	for _, std := range wireless.Standards() {
		near := wlanGoodput(seed, std, 0.3*std.RangeMax, window)
		mid := wlanGoodput(seed, std, 0.7*std.RangeMax, window)
		far := wlanGoodput(seed, std, 0.95*std.RangeMax, window)
		beyond := wlanGoodput(seed, std, 1.2*std.RangeMax, window)

		res.AddRow(
			std.Name,
			std.MaxRate.String(),
			fmt.Sprintf("%.0f – %.0f m", std.RangeMin, std.RangeMax),
			fmt.Sprintf("%s / %.1f GHz", std.Modulation, std.BandGHz),
			fmtRate(near), fmtRate(mid), fmtRate(far),
			map[bool]string{true: "no link", false: fmtRate(beyond)}[beyond == 0],
		)
		res.Set(std.Name+"/near_bps", near)
		res.Set(std.Name+"/mid_bps", mid)
		res.Set(std.Name+"/far_bps", far)
		res.Set(std.Name+"/beyond_bps", beyond)
	}
	res.Note("goodput at 30%%/70%%/95%% of each standard's typical range over TCP; rate stepdown and range cutoff per the radio model")
	return res
}
