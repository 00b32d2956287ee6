package experiments

import (
	"fmt"
	"time"

	"mcommerce/internal/faults"
	"mcommerce/internal/mtcp"
	"mcommerce/internal/obs"
	"mcommerce/internal/simnet"
)

// CC is the congestion control algorithm experiment worlds select on
// their TCP endpoints (mcbench -cc sets it; empty means Reno). Output
// stays deterministic per seed for either choice.
var CC string

// ccOpts stamps the registry-selected congestion control onto opts,
// keeping any explicit per-experiment choice.
func ccOpts(opts mtcp.Options) mtcp.Options {
	if opts.CC == "" {
		opts.CC = CC
	}
	return opts
}

// tcpPath is the canonical mobile transport testbed:
// fixed --wired 10 Mbps/20 ms-- gateway --"wireless" 2 Mbps/2 ms, lossy-- mobile.
type tcpPath struct {
	net                    *simnet.Network
	fixed, gateway, mobile *simnet.Node
	wired, wireless        *simnet.Link
	fs, gs, ms             *mtcp.Stack
}

func newTCPPath(seed int64, wirelessLoss float64) *tcpPath {
	net := simnet.NewNetwork(simnet.NewScheduler(seed))
	fixed := net.NewNode("fixed")
	gw := net.NewNode("gateway")
	mob := net.NewNode("mobile")
	gw.Forwarding = true
	wired := simnet.Connect(fixed, gw, simnet.LinkConfig{Rate: 10 * simnet.Mbps, Delay: 20 * time.Millisecond})
	wl := simnet.Connect(gw, mob, simnet.LinkConfig{Rate: 2 * simnet.Mbps, Delay: 2 * time.Millisecond, Loss: wirelessLoss})
	fixed.SetDefaultRoute(wired.IfaceA())
	mob.SetDefaultRoute(wl.IfaceB())
	gw.SetRoute(fixed.ID, wired.IfaceB())
	gw.SetRoute(mob.ID, wl.IfaceA())
	return &tcpPath{
		net: net, fixed: fixed, gateway: gw, mobile: mob, wired: wired, wireless: wl,
		fs: mtcp.MustNewStack(fixed),
		gs: mtcp.MustNewStack(gw),
		ms: mtcp.MustNewStack(mob),
	}
}

// tcpOutcome is one transfer's measurement.
type tcpOutcome struct {
	completed   bool
	elapsed     time.Duration
	goodputBps  float64
	retransmits uint64 // at the fixed (wired) sender
	timeouts    uint64
}

// setupVariant builds the named §5.2 transport variant on p, ready for d
// to push its payload fixed→mobile. relayWired configures the I-TCP
// relay's wired leg. Every endpoint's congestion control comes from
// ccOpts. It reports false for an unknown variant or a failed setup.
func (p *tcpPath) setupVariant(variant string, relayWired mtcp.Options, d *download) bool {
	switch variant {
	case "TCP (end-to-end Reno)", "TCP + fast reconnect [2]", "TCP (end-to-end NewReno)":
		return d.start(p.fs, p.ms, mtcp.Options{NewReno: variant == "TCP (end-to-end NewReno)"}) == nil
	case "I-TCP (split connection)":
		// The fixed server listens; the mobile connects through the
		// gateway relay; the server pushes the payload.
		if err := p.fs.Listen(80, ccOpts(mtcp.Options{}), d.push); err != nil {
			return false
		}
		if _, err := mtcp.NewRelay(p.gs, 8080, simnet.Addr{Node: p.fixed.ID, Port: 80},
			ccOpts(mtcp.Options{RTOMin: 100 * time.Millisecond}), ccOpts(relayWired)); err != nil {
			return false
		}
		p.ms.Dial(simnet.Addr{Node: p.gateway.ID, Port: 8080}, ccOpts(mtcp.Options{}), func(c *mtcp.Conn, err error) {
			if err == nil {
				d.accept(c)
			}
		})
		return true
	case "Snoop (packet caching)":
		mtcp.NewSnoopAgent(p.gateway, func(id simnet.NodeID) bool { return id == p.mobile.ID })
		return d.start(p.fs, p.ms, mtcp.Options{}) == nil
	}
	return false
}

// runVariant pushes size bytes fixed→mobile under the named variant and
// measures the fixed sender's behaviour.
func runVariant(seed int64, variant string, loss float64, size int, horizon time.Duration) tcpOutcome {
	p := newTCPPath(seed, loss)
	var out tcpOutcome
	d := &download{sched: p.net.Sched, size: size, stop: true}
	if !p.setupVariant(variant, mtcp.Options{}, d) {
		return out
	}
	d.run(horizon)
	out.elapsed, out.completed = d.elapsed(horizon)
	out.goodputBps = d.bps(out.elapsed)
	if d.send != nil {
		st := d.send.Stats()
		out.retransmits = st.Retransmits
		out.timeouts = st.Timeouts
	}
	return out
}

// tcpSweepVariants are E-TCP(a)'s rows at each loss rate.
var tcpSweepVariants = []string{"TCP (end-to-end Reno)", "TCP (end-to-end NewReno)", "I-TCP (split connection)", "Snoop (packet caching)"}

// TCPVariants reproduces the Section 5.2 mobile-TCP claims as two
// experiments: (a) a wireless-loss sweep comparing end-to-end Reno with
// the split-connection approach of Yavatkar & Bhagawat [16] and the Snoop
// packet caching of Balakrishnan et al. [1]; (b) a disconnection scenario
// exercising the fast-retransmission-on-reconnection scheme of Caceres &
// Iftode [2].
func TCPVariants(seed int64) []*Result {
	sweep := newResult("E-TCP(a)", "TCP variants vs wireless loss (300 KB download, fixed→mobile)",
		"wireless loss", "variant", "completed", "time", "goodput", "wired-sender retransmits")

	const size = 300 << 10
	const horizon = 5 * time.Minute
	losses := []float64{0.001, 0.01, 0.03, 0.05, 0.10}
	for _, loss := range losses {
		for _, v := range tcpSweepVariants {
			o := runVariant(seed, v, loss, size, horizon)
			sweep.AddRow(
				fmt.Sprintf("%.1f%%", loss*100), v,
				fmt.Sprint(o.completed), fmtDur(o.elapsed), fmtRate(o.goodputBps),
				fmt.Sprint(o.retransmits),
			)
			key := fmt.Sprintf("%s@%.3f", v, loss)
			sweep.Set(key+"/goodput_bps", o.goodputBps)
			sweep.Set(key+"/retransmits", float64(o.retransmits))
			sweep.Set(key+"/completed", b2f(o.completed))
		}
	}
	sweep.Note("[16]: the split connection confines loss recovery to the wireless hop — its goodput degrades most slowly as loss grows")
	sweep.Note("[1]: snoop repairs wireless losses locally — the fixed sender's retransmissions stay near zero")
	sweep.Note("NewReno beats Reno at moderate random loss (several losses per window recover without RTO) but lags on burst queue-overflow loss, where one retransmission per RTT is slower than Reno's timeout+go-back-N — without SACK that is the expected trade")

	recon := newResult("E-TCP(b)", "Fast retransmission after reconnection [2] (120 KB through a 4.2 s blackout)",
		"scheme", "transfer time", "idle after reconnect")
	for _, signal := range []bool{false, true} {
		elapsed, idle := blackoutRun(seed, 120<<10, 300*time.Millisecond, 4200*time.Millisecond, 0, signal, 10*time.Minute)
		name := "standard TCP (waits for backed-off RTO)"
		if signal {
			name = "fast retransmit on reconnection [2]"
		}
		recon.AddRow(name, fmtDur(elapsed), fmtDur(idle))
		key := map[bool]string{false: "rto", true: "fastrx"}[signal]
		recon.Set(key+"/elapsed_ms", float64(elapsed.Milliseconds()))
		recon.Set(key+"/idle_ms", float64(idle.Milliseconds()))
	}
	recon.Note("[2] 'utilizes the fast retransmission option immediately after handoff is completed' — recovery begins one RTT after reconnection instead of at the next backed-off timeout")
	return []*Result{sweep, recon}
}

// The transport testbed's default fault plan, the §5.2 counterpart of
// the system-level DefaultChaosPlan: a short wireless blackout (a
// handoff), a wired brownout (backbone congestion), and a longer
// wireless disconnection. Restores at 4.5 s and 14 s are the handoff
// recovery measurement points.
func defaultTCPFaultPlan() *faults.Plan {
	p := faults.NewPlan("tcp-default-faults").
		Add(faults.Event{At: 3 * time.Second, Duration: 1500 * time.Millisecond, Kind: faults.LinkDown, Target: "wireless"}).
		Add(faults.Event{At: 8 * time.Second, Duration: time.Second, Kind: faults.Brownout, Target: "wired", RateFactor: 0.2, ExtraLoss: 0.1}).
		Add(faults.Event{At: 12 * time.Second, Duration: 2 * time.Second, Kind: faults.LinkDown, Target: "wireless"})
	p.Sort()
	return p
}

// tcpFaultRestores are the instants the plan's wireless blackouts lift.
var tcpFaultRestores = []time.Duration{4500 * time.Millisecond, 14 * time.Second}

// faultedOutcome measures one variant's ride through the fault plan.
type faultedOutcome struct {
	completed bool
	elapsed   time.Duration
	// rtxOverhead is retransmitted segments as a fraction of all segments
	// the wired sender transmitted.
	rtxOverhead float64
	// recovery[i] is the gap between blackout i lifting and the next
	// in-order delivery at the mobile (zero if the transfer was already
	// complete).
	recovery []time.Duration
	// timeline carries the run's sampled telemetry with the fault plan
	// as annotations; slo the tcpfault rule set's verdicts over it.
	timeline *obs.Timeline
	slo      []obs.Interval
}

// runFaulted pushes size bytes fixed→mobile under the named variant with
// the default fault plan running, plus 1% ambient wireless loss.
// "TCP + fast reconnect" is end-to-end Reno with SignalReconnect fired
// at each wireless restore, the Caceres & Iftode [2] scheme driven by
// the link layer.
func runFaulted(seed int64, variant string, size int, horizon time.Duration) faultedOutcome {
	p := newTCPPath(seed, 0.01)
	var out faultedOutcome
	out.recovery = make([]time.Duration, len(tcpFaultRestores))

	in := faults.NewInjector(p.net)
	in.RegisterLink("wired", p.wired)
	in.RegisterLink("wireless", p.wireless)
	if err := in.Schedule(defaultTCPFaultPlan()); err != nil {
		return out
	}
	tl := obs.NewTimeline(TimelineInterval)
	tl.Attach(p.net)

	d := &download{sched: p.net.Sched, size: size, stop: true, onData: func(now time.Duration) {
		for i, up := range tcpFaultRestores {
			if out.recovery[i] == 0 && now > up {
				out.recovery[i] = now - up
			}
		}
	}}

	// The relay's wired leg advertises a window sized to the wired BDP:
	// the fixed sender then never blasts the LAN queue into overflow
	// cycles while the wireless leg stalls through a blackout, so its
	// retransmission counter reflects wireless events reaching it, not
	// self-inflicted buffer loss.
	if !p.setupVariant(variant, mtcp.Options{RcvWnd: 64 << 10}, d) {
		return out
	}

	if variant == "TCP + fast reconnect [2]" {
		// The link-layer handoff notification trails the restore by a
		// beat; firing at the exact restore instant would race the
		// injector's link-up event and drop the dupacks on a dead link.
		for _, up := range tcpFaultRestores {
			p.net.Sched.At(up+time.Millisecond, func() {
				if d.recv != nil {
					d.recv.SignalReconnect()
				}
			})
		}
	}

	d.run(horizon)
	out.elapsed, out.completed = d.elapsed(horizon)
	if d.send != nil {
		st := d.send.Stats()
		if st.SegmentsSent > 0 {
			out.rtxOverhead = float64(st.Retransmits) / float64(st.SegmentsSent)
		}
	}
	tl.IngestFaults(in)
	out.timeline = tl
	out.slo = obs.Evaluate(tl, obs.DefaultRules("tcpfault"))
	return out
}

// TCPFaultPlan compares the §5.2 variants riding the transport testbed's
// default fault plan: sender retransmission overhead and per-blackout
// handoff recovery time, the two costs the paper's cited schemes attack.
func TCPFaultPlan(seed int64) []*Result {
	r := newResult("E-TCP(d)", "TCP variants under the default fault plan (2 MB, two wireless blackouts + wired brownout, 1% ambient loss)",
		"variant", "completed", "time", "sender rtx overhead", "recovery after 1.5s blackout", "recovery after 2s blackout", "SLO violations")
	const size = 2 << 20
	const horizon = 2 * time.Minute
	variants := []string{
		"TCP (end-to-end Reno)",
		"Snoop (packet caching)",
		"I-TCP (split connection)",
		"TCP + fast reconnect [2]",
	}
	for _, v := range variants {
		o := runFaulted(seed, v, size, horizon)
		rec := func(i int) string {
			if i >= len(o.recovery) || o.recovery[i] == 0 {
				return "done before"
			}
			return fmtDur(o.recovery[i])
		}
		r.AddRow(v, fmt.Sprint(o.completed), fmtDur(o.elapsed),
			fmt.Sprintf("%.1f%%", o.rtxOverhead*100), rec(0), rec(1), sloCell(o.slo))
		r.AttachSLO(v, o.slo)
		writeTimeline(r, timelineTag("tcpfault", v), o.timeline, o.slo)
		r.Set(v+"/elapsed_ms", float64(o.elapsed.Milliseconds()))
		r.Set(v+"/rtx_overhead", o.rtxOverhead)
		r.Set(v+"/completed", b2f(o.completed))
		for i, d := range o.recovery {
			r.Set(fmt.Sprintf("%s/recovery%d_ms", v, i), float64(d.Milliseconds()))
		}
	}
	r.Note("snoop and the split connection keep the wired sender's retransmission overhead below the end-to-end baseline — the wireless blackouts are repaired (or absorbed) at the gateway")
	r.Note("fast reconnect [2] does not reduce retransmission volume; it removes the backed-off RTO wait, so recovery after each blackout is roughly one RTT")
	return []*Result{r}
}
