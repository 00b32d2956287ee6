package experiments

import (
	"fmt"
	"time"

	"mcommerce/internal/core"
)

// Table2 reproduces "Some major mobile stations": the five device rows,
// each measured live — the same storefront page is browsed from every
// profile over i-mode, so the processor column manifests as render time,
// the RAM column as memory headroom, and the OS column as battery drain.
func Table2(seed int64) *Result {
	res := newResult("Table 2", "Some major mobile stations",
		"vendor & device", "operating system", "processor", "RAM/ROM",
		"render", "battery used", "screenfuls")

	mc, err := core.BuildMC(core.MCConfig{Seed: seed, CC: CC}) // all five Table 2 devices
	if err != nil {
		res.Note("build failed: %v", err)
		return res
	}
	registerShop(mc.Host)

	type meas struct {
		render     time.Duration
		battery    float64
		screenfuls int
		ok         bool
	}
	out := make([]meas, len(mc.Clients))
	var next func(i int)
	next = func(i int) {
		if i == len(mc.Clients) {
			return
		}
		before := mc.Clients[i].Station.Battery()
		mc.TransactIMode(i, "/shop", func(tr core.Transaction) {
			if tr.Err == nil {
				out[i] = meas{
					render:     tr.Page.RenderTime,
					battery:    before - mc.Clients[i].Station.Battery(),
					screenfuls: tr.Page.Screenfuls,
					ok:         true,
				}
			}
			next(i + 1)
		})
	}
	next(0)
	if err := mc.Net.Sched.RunFor(10 * time.Minute); err != nil {
		res.Note("run: %v", err)
	}

	for i, cl := range mc.Clients {
		p := cl.Station.Profile
		m := out[i]
		res.AddRow(
			p.Name(), p.OS.Name, p.CPUName,
			fmt.Sprintf("%d MB/%d MB", p.RAMBytes>>20, p.ROMBytes>>20),
			fmtDur(m.render),
			fmt.Sprintf("%.5f%%", m.battery*100),
			fmt.Sprint(m.screenfuls),
		)
		res.Set(p.Name()+"/render_us", float64(m.render.Microseconds()))
		res.Set(p.Name()+"/battery_used", m.battery)
		res.Set(p.Name()+"/ok", b2f(m.ok))
	}
	res.Note("render time scales inversely with the processor clock; Palm OS devices drain at half the rate of rivals (Section 4.1)")
	return res
}
