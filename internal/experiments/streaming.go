package experiments

import (
	"fmt"
	"time"

	"mcommerce/internal/apps"
	"mcommerce/internal/cellular"
	"mcommerce/internal/core"
	"mcommerce/internal/device"
	"mcommerce/internal/mtcp"
)

// Streaming quantifies the paper's 3G motivation — W-CDMA "allowing users
// to download video images and other bandwidth-intensive content" — as
// playback quality: the same 128 kbps clip is streamed over each
// packet-switched cellular generation and judged by startup delay and
// rebuffering.
func Streaming(seed int64) *Result {
	res := newResult("E-STREAM", "Streaming a 128 kbps clip (900 KiB) per cellular bearer",
		"bearer", "nominal rate", "startup", "stalls", "time frozen", "verdict")

	for _, std := range []cellular.Standard{cellular.CDMA, cellular.GPRS, cellular.EDGE, cellular.WCDMA} {
		st, ok := streamRun(seed, std)
		if !ok {
			res.AddRow(std.Name, std.DataRate.String(), "-", "-", "-", "did not complete")
			res.Set(std.Name+"/finished", 0)
			continue
		}
		verdict := "smooth playback"
		if st.Stalls > 0 {
			verdict = "unwatchable"
			if st.Stalls <= 2 {
				verdict = "degraded"
			}
		}
		res.AddRow(std.Name, std.DataRate.String(),
			fmtDur(st.StartupDelay), fmt.Sprint(st.Stalls), fmtDur(st.StallTime), verdict)
		res.Set(std.Name+"/stalls", float64(st.Stalls))
		res.Set(std.Name+"/startup_ms", float64(st.StartupDelay.Milliseconds()))
		res.Set(std.Name+"/finished", b2f(st.Finished))
	}
	res.Note("media plays at 128 kbps after a 16 KiB prebuffer; a bearer below the media rate must stall — the quantified version of the paper's 3G motivation")
	return res
}

// streamRun plays the trailer over one standard.
func streamRun(seed int64, std cellular.Standard) (apps.StreamStats, bool) {
	mc, err := core.BuildMC(core.MCConfig{
		Seed: seed, Bearer: core.BearerCellular, CellStandard: std, CC: CC,
		Devices: []device.Profile{device.CompaqIPAQH3870},
	})
	if err != nil {
		return apps.StreamStats{}, false
	}
	if err := apps.NewEntertainment().Register(mc.Host); err != nil {
		return apps.StreamStats{}, false
	}
	if err := apps.RegisterStreaming(mc.Host, ccOpts(mtcp.Options{})); err != nil {
		return apps.StreamStats{}, false
	}
	player := apps.NewStreamPlayer(mc.Net.Sched, 128_000, 16<<10, 900<<10)
	apps.StreamMedia(mc.Clients[0].Stack, mc.Host.Node.ID, "clip1", player, ccOpts(mtcp.Options{}), func(error) {})
	if err := mc.Net.Sched.RunFor(30 * time.Minute); err != nil {
		return apps.StreamStats{}, false
	}
	st := player.Stats()
	return st, st.Finished
}
