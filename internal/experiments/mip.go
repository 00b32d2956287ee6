package experiments

import (
	"fmt"
	"time"

	"mcommerce/internal/mobileip"
	"mcommerce/internal/mtcp"
	"mcommerce/internal/simnet"
)

// mipRun transfers size bytes from a correspondent to a mobile on its home
// subnet. With move, the mobile moves to a foreign subnet 100 ms into the
// transfer: with useMobileIP it registers through the foreign agent;
// without it, packets keep arriving at the (now disconnected) home
// attachment.
func mipRun(seed int64, move, useMobileIP bool, size int, horizon time.Duration) (completed bool, elapsed time.Duration, tunneled uint64, overhead uint64, regLatency time.Duration) {
	net := simnet.NewNetwork(simnet.NewScheduler(seed))
	corr := net.NewNode("correspondent")
	home := net.NewNode("home-router")
	foreign := net.NewNode("foreign-router")
	mob := net.NewNode("mobile")

	lCorr := simnet.Connect(corr, home, simnet.LAN)
	lBack := simnet.Connect(home, foreign, simnet.WAN)
	lHomeM := simnet.Connect(home, mob, simnet.LAN)
	lForM := simnet.Connect(foreign, mob, simnet.LAN)
	lForM.IfaceB().Up = false

	corr.SetDefaultRoute(lCorr.IfaceA())
	home.SetRoute(corr.ID, lCorr.IfaceB())
	home.SetRoute(mob.ID, lHomeM.IfaceA())
	home.SetDefaultRoute(lBack.IfaceA())
	foreign.SetDefaultRoute(lBack.IfaceB())
	foreign.SetRoute(mob.ID, lForM.IfaceA())
	mob.SetDefaultRoute(lHomeM.IfaceB())

	ha := mobileip.NewHomeAgent(home, nil)
	fa := mobileip.NewForeignAgent(foreign)
	client := mobileip.NewClient(mob, mobileip.Config{
		HomeAgent: simnet.Addr{Node: home.ID, Port: mobileip.MobileIPPort},
	})

	d := &download{sched: net.Sched, size: size, stop: true}
	if err := d.start(mtcp.MustNewStack(corr), mtcp.MustNewStack(mob), mtcp.Options{}); err != nil {
		return false, 0, 0, 0, 0
	}

	if move {
		net.Sched.At(100*time.Millisecond, func() {
			lHomeM.IfaceB().Up = false
			lForM.IfaceB().Up = true
			mob.SetDefaultRoute(lForM.IfaceB())
			if useMobileIP {
				regStart := net.Sched.Now()
				client.Register(fa.Addr(), func(err error) {
					if err == nil {
						regLatency = net.Sched.Now() - regStart
					}
				})
			}
		})
	}

	d.run(horizon)
	st := ha.Stats()
	elapsed, completed = d.elapsed(horizon)
	return completed, elapsed, st.Tunneled, st.Tunneled * simnet.IPHeaderBytes, regLatency
}

// MobileIPRoaming reproduces the Section 5.2 Mobile IP description: the
// home agent intercepts datagrams for a roaming mobile and tunnels them to
// the foreign agent's care-of address, keeping an active TCP connection
// alive across the move ("transparency above the IP layer").
func MobileIPRoaming(seed int64) *Result {
	res := newResult("E-MIP", "Mobile IP roaming transparency (400 KB transfer, move at t=100 ms)",
		"scenario", "transfer completed", "time", "tunneled datagrams", "encapsulation overhead")

	const size = 400 << 10
	const horizon = 2 * time.Minute

	okStay, tStay, _, _, _ := mipRun(seed, false, false, size, horizon)
	res.AddRow("no move (baseline)", fmt.Sprint(okStay), fmtDur(tStay), "0", "0 B")
	res.Set("baseline/completed", b2f(okStay))
	res.Set("baseline/ms", float64(tStay.Milliseconds()))

	okNo, tNo, _, _, _ := mipRun(seed, true, false, size, horizon)
	res.AddRow("move without Mobile IP", fmt.Sprint(okNo), fmtDur(tNo), "0", "0 B")
	res.Set("nomip/completed", b2f(okNo))

	okMip, tMip, tun, ovh, reg := mipRun(seed, true, true, size, horizon)
	res.AddRow("move with Mobile IP (HA→FA tunnel)", fmt.Sprint(okMip), fmtDur(tMip),
		fmt.Sprint(tun), fmtBytes(int(ovh)))
	res.Set("mip/completed", b2f(okMip))
	res.Set("mip/ms", float64(tMip.Milliseconds()))
	res.Set("mip/tunneled", float64(tun))
	res.Note("registration (mobile→FA→HA→back) completed in %s", fmtDur(reg))
	res.Note("without Mobile IP the connection black-holes at the home subnet; with it the transfer finishes over the tunnel at the cost of %s of IP-in-IP headers", fmtBytes(int(ovh)))
	return res
}
