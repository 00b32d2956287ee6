package experiments

import (
	"fmt"
	"sort"
	"time"

	"mcommerce/internal/core"
	"mcommerce/internal/faults"
	"mcommerce/internal/metrics"
	"mcommerce/internal/obs"
	"mcommerce/internal/simnet"
	"mcommerce/internal/trace"
	"mcommerce/internal/wap"
	"mcommerce/internal/webserver"
)

// chaosHorizon is the window the default fault plan and the transaction
// schedule both span.
const chaosHorizon = 60 * time.Second

// ChaosTargets registers the canonical fault-injection targets of a built
// MC system on the injector: the wired "lan" and "wan" links, the
// "gateway" and "host" nodes (the gateway's crash hook drops its sessions
// and cache), and a "backhaul" cut of both wired segments. When the system
// carries a replicated data tier, the host's crash hook also crashes the
// primary member, each replica registers as "dbN" with its own crash and
// catch-up hooks plus "dbN-link", and every member gets a "dbN-sync"
// crash-during-sync trigger. Shared by the chaos experiment and mcsim
// -faults.
func ChaosTargets(mc *core.MC, in *faults.Injector) {
	in.RegisterLink("lan", mc.LANLink)
	in.RegisterLink("wan", mc.WANLink)
	in.RegisterNode("gateway", mc.GatewayNode, mc.WAP.Crash, nil)
	dt := mc.DataTier
	if dt == nil {
		in.RegisterNode("host", mc.Host.Node, nil, nil)
		in.RegisterCut("backhaul", mc.LANLink, mc.WANLink)
		return
	}
	memberCrash := func(i int) (crash, restart func()) {
		m, s := dt.Members[i], dt.Services[i]
		return func() { s.Crash(); m.Crash() }, m.Restart
	}
	c0, r0 := memberCrash(0)
	in.RegisterNode("host", mc.Host.Node, c0, r0)
	for i := 1; i < len(dt.Members); i++ {
		c, r := memberCrash(i)
		in.RegisterNode(fmt.Sprintf("db%d", i), dt.Nodes[i-1], c, r)
		in.RegisterLink(fmt.Sprintf("db%d-link", i), dt.Links[i-1])
	}
	for i := range dt.Members {
		c, r := memberCrash(i)
		in.RegisterSyncTrigger(fmt.Sprintf("db%d-sync", i), dt.Members[i].Node(), c, r,
			dt.Services[i].OnSessionStart)
	}
	in.RegisterCut("backhaul", mc.LANLink, mc.WANLink)
}

// DefaultChaosPlan is the scripted outage sequence the chaos experiment
// and mcsim -faults run: a WAN flap, a WAN brownout, a gateway crash
// (sessions and cache lost), a host crash, and a short full partition,
// plus a few seeded-random extras drawn over the same targets.
func DefaultChaosPlan(seed int64) *faults.Plan {
	p := faults.NewPlan(fmt.Sprintf("default-chaos-%d", seed)).
		Add(faults.Event{At: 8 * time.Second, Duration: 2 * time.Second, Kind: faults.LinkDown, Target: "wan"}).
		Add(faults.Event{At: 18 * time.Second, Duration: 5 * time.Second, Kind: faults.Brownout, Target: "wan", RateFactor: 0.1, ExtraLoss: 0.2}).
		Add(faults.Event{At: 30 * time.Second, Duration: 2 * time.Second, Kind: faults.NodeCrash, Target: "gateway"}).
		Add(faults.Event{At: 40 * time.Second, Duration: 3 * time.Second, Kind: faults.NodeCrash, Target: "host"}).
		Add(faults.Event{At: 50 * time.Second, Duration: 1500 * time.Millisecond, Kind: faults.Partition, Target: "backhaul"})
	extra := faults.RandomPlan(seed, faults.RandomConfig{
		Horizon:     chaosHorizon,
		Events:      3,
		MinDuration: 500 * time.Millisecond,
		MaxDuration: 1500 * time.Millisecond,
		Links:       []string{"lan", "wan"},
	})
	for _, e := range extra.Events {
		p.Add(e)
	}
	p.Sort()
	return p
}

// chaosMode is one column of the experiment: whether faults run and
// whether the resilience policies are armed.
type chaosMode struct {
	name      string
	faulted   bool
	resilient bool
}

// chaosReport is one mode's measurements.
type chaosReport struct {
	attempted int
	completed int
	stale     int // completions served from the gateway's expired cache
	p50, p99  time.Duration
	// appRetries counts application-level re-submissions; transport counts
	// come from the gateway.
	appRetries int
	gwStats    wap.GatewayStats
	wtpStats   wap.WTPStats
	faultStats faults.Stats
	// faultEvents is the injector's typed feed (what fired, when, which
	// phase) — the same stream the timeline ingests as annotations.
	faultEvents []faults.FiredEvent
	// telemetry is the world registry's snapshot diff over the run.
	telemetry metrics.Snapshot
	// critpath is the per-layer critical-path attribution over every traced
	// transaction (completed and abandoned alike).
	critpath trace.Summary
	// timeline is the run's sampled telemetry with fault annotations;
	// slo holds the chaos rule set's verdicts over it.
	timeline *obs.Timeline
	slo      []obs.Interval
}

// amplification is total retries (application re-submissions, wireless
// retransmits seen as duplicates at the gateway, gateway-side result
// retransmits, wired-side origin retries) per completed transaction.
func (r *chaosReport) amplification() float64 {
	if r.completed == 0 {
		return 0
	}
	retries := uint64(r.appRetries) + r.wtpStats.Duplicates + r.wtpStats.Retransmits + r.gwStats.OriginRetries
	return float64(retries) / float64(r.completed)
}

// chaosRun drives clients*rounds WAP transactions across the fault window
// and measures completion and latency. resilient arms every policy:
// exponential-backoff WTP retransmission, gateway origin retries with
// per-attempt timeouts, stale-cache degradation, and application-level
// retry with session re-establishment. Fragile disables all of them
// (single-shot WTP included).
func chaosRun(seed int64, clients, rounds int, mode chaosMode) (*chaosReport, error) {
	wcfg := wap.DefaultGatewayConfig()
	if mode.resilient {
		wcfg.CacheTTL = 2 * time.Second
		wcfg.ServeStale = true
		wcfg.OriginRetry = webserver.RetryPolicy{
			MaxRetries: 3,
			Timeout:    2 * time.Second,
			Backoff:    faults.Backoff{Base: 200 * time.Millisecond, Factor: 2, Cap: 2 * time.Second, Jitter: 0.2},
		}
		wcfg.WTP.Backoff = faults.Backoff{Factor: 2, Cap: 12 * time.Second, Jitter: 0.1}
	} else {
		wcfg.WTP.MaxRetries = -1 // single shot: a lost PDU is a lost transaction
	}

	mc, err := core.BuildMC(core.MCConfig{Seed: seed, WAPConfig: &wcfg, DisableIMode: true, CC: CC})
	if err != nil {
		return nil, err
	}
	// Trace every transaction so the report can attribute critical-path
	// latency to layers — the mechanism behind the completion/latency deltas
	// between modes.
	mc.Net.Tracer.EnableExport(1)
	if clients > len(mc.Clients) {
		clients = len(mc.Clients)
	}
	mc.Host.Server.Handle("/chaos/catalog", func(r *webserver.Request) *webserver.Response {
		return webserver.HTML(`<html><head><title>Catalog</title></head>
			<body><h1>Catalog</h1><p>Todays offers for mobile buyers.</p></body></html>`)
	})

	rep := &chaosReport{}
	in := faults.NewInjector(mc.Net)
	ChaosTargets(mc, in)
	if mode.faulted {
		if err := in.Schedule(DefaultChaosPlan(seed)); err != nil {
			return nil, err
		}
	}

	sched := mc.Net.Sched
	origin := simnet.Addr{Node: mc.Host.Node.ID, Port: core.WebPort}
	url := wap.URL{Origin: origin, Path: "/chaos/catalog"}
	appBackoff := faults.Backoff{Base: time.Second, Factor: 2, Cap: 8 * time.Second, Jitter: 0.25}
	appRetries := 0
	if mode.resilient {
		appRetries = 3
	}

	var latencies []time.Duration
	// Observe end-to-end latency into the shared registry histogram
	// (core.BuildMC registered it; re-requesting the name returns the
	// same instance) so the sampled timeline and the SLO latency rules
	// see the same distribution the table reports.
	txnLat := mc.Net.Metrics.Scope("core.txn").Histogram("wap.latency")
	interval := chaosHorizon / time.Duration(rounds)

	for ci := 0; ci < clients; ci++ {
		cl := mc.Clients[ci]
		var sess *wap.Session
		connect := func(done func()) {
			wap.Connect(cl.WTP(), mc.WAP.Addr(), nil, func(s *wap.Session, err error) {
				if err == nil {
					sess = s
				}
				done()
			})
		}
		// Stagger clients inside each round so transactions don't start on
		// the same tick.
		stagger := time.Duration(ci) * 200 * time.Millisecond
		transact := func(start time.Duration) {
			rep.attempted++
			// One root span per transaction, spanning every app-level retry
			// and session re-establishment until success or abandonment.
			tr := mc.Net.Tracer
			root := tr.StartTrace("core.txn.wap", trace.LayerStation)
			var attempt func(n int)
			attempt = func(n int) {
				fail := func() {
					if n >= appRetries {
						tr.Annotate(root, "txn.lost")
						tr.Finish(root)
						return // transaction lost
					}
					rep.appRetries++
					tr.Annotate(root, "app.retry")
					// The session may have died with the gateway:
					// re-establish it before retrying.
					sched.After(appBackoff.Delay(n, sched.Rand()), func() {
						prev := tr.Swap(root)
						defer tr.Swap(prev)
						connect(func() { attempt(n + 1) })
					})
				}
				if sess == nil {
					fail()
					return
				}
				prev := tr.Swap(root)
				defer tr.Swap(prev)
				sess.Get(url, func(r *wap.Reply, err error) {
					if err != nil || r.Status != 200 {
						fail()
						return
					}
					rep.completed++
					latencies = append(latencies, sched.Now()-start)
					txnLat.Observe(sched.Now() - start)
					tr.Finish(root)
				})
			}
			attempt(0)
		}
		sched.At(stagger, func() {
			connect(func() {
				for r := 0; r < rounds; r++ {
					start := time.Duration(r)*interval + stagger + time.Second
					sched.At(start, func() { transact(start) })
				}
			})
		})
	}

	// Sample the world registry on the simulation clock for the whole
	// run; the sampler quiesces with the workload, so the tail costs
	// nothing once the last transaction drains.
	tl := obs.NewTimeline(TimelineInterval)
	tl.Attach(mc.Net)

	// Generous tail: the slowest resilient transaction (WTP window + app
	// backoff) finishes well inside it.
	pre := mc.Metrics().Snapshot()
	if err := sched.RunFor(chaosHorizon + 3*time.Minute); err != nil {
		return nil, err
	}
	rep.telemetry = mc.Metrics().Snapshot().Diff(pre)
	tl.IngestFaults(in)
	rep.timeline = tl
	rep.slo = obs.Evaluate(tl, obs.DefaultRules("chaos"))

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	rep.p50 = percentileDur(latencies, 0.50)
	rep.p99 = percentileDur(latencies, 0.99)
	rep.gwStats = mc.WAP.Stats()
	rep.wtpStats = mc.WAP.WTPStats()
	rep.stale = int(rep.gwStats.StaleHits)
	rep.faultStats = in.Stats()
	rep.faultEvents = in.Events()
	rep.critpath = trace.Summarize(trace.Analyze(mc.Net.Tracer.Spans()))
	return rep, nil
}

// percentileDur returns the q-quantile of sorted durations (0 for empty).
func percentileDur(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// Chaos measures end-to-end resilience: the same WAP transaction workload
// runs with no faults, with the default fault plan and every resilience
// policy armed, and with the same faults but single-shot transport and no
// retries. The paper's claim under test: an unreliable substrate is
// survivable at the middleware and application layers, at a bounded cost
// in latency and retry traffic.
func Chaos(seed int64) []*Result {
	const clients, rounds = 5, 12
	res := newResult("E-CHAOS", "Fault injection: transaction completion under outages",
		"mode", "transactions", "completed", "completion", "p50 latency", "p99 latency", "retries/tx", "stale serves", "faults applied", "SLO violations")
	cp := newResult("E-CHAOS-CRITPATH", "Critical-path latency attribution per layer (share of traced transaction time)",
		"mode", "traced", "station", "wireless", "middleware", "wired", "host", "transport")

	modes := []chaosMode{
		{"no faults, resilient", false, true},
		{"faults, resilient", true, true},
		{"faults, fragile", true, false},
	}
	var logged []faults.FiredEvent
	for _, m := range modes {
		rep, err := chaosRun(seed, clients, rounds, m)
		if err != nil {
			res.AddRow(m.name, "error: "+err.Error(), "-", "-", "-", "-", "-", "-", "-", "-")
			cp.AddRow(m.name, "error: "+err.Error(), "-", "-", "-", "-", "-", "-")
			continue
		}
		s := rep.critpath
		share := func(l trace.Layer) string {
			if s.Total <= 0 {
				return "-"
			}
			return fmt.Sprintf("%s (%.1f%%)", fmtDur(s.ByLayer[l]),
				100*float64(s.ByLayer[l])/float64(s.Total))
		}
		cp.AddRow(m.name, fmt.Sprint(s.Count),
			share(trace.LayerStation), share(trace.LayerWireless),
			share(trace.LayerMiddleware), share(trace.LayerWired),
			share(trace.LayerHost), share(trace.LayerTransport))
		for _, l := range []trace.Layer{trace.LayerStation, trace.LayerWireless, trace.LayerMiddleware, trace.LayerWired, trace.LayerHost, trace.LayerTransport} {
			if s.Total > 0 {
				cp.Set(m.name+"/"+l.String()+"_share", float64(s.ByLayer[l])/float64(s.Total))
			}
		}
		completion := float64(rep.completed) / float64(rep.attempted)
		res.AddRow(m.name,
			fmt.Sprint(rep.attempted),
			fmt.Sprint(rep.completed),
			fmt.Sprintf("%.1f%%", completion*100),
			fmtDur(rep.p50),
			fmtDur(rep.p99),
			fmt.Sprintf("%.2f", rep.amplification()),
			fmt.Sprint(rep.stale),
			fmt.Sprint(rep.faultStats.Total()),
			sloCell(rep.slo),
		)
		res.Set(m.name+"/completion", completion)
		res.Set(m.name+"/p50_ms", float64(rep.p50.Milliseconds()))
		res.Set(m.name+"/p99_ms", float64(rep.p99.Milliseconds()))
		res.Set(m.name+"/amplification", rep.amplification())
		res.Set(m.name+"/faults", float64(rep.faultStats.Total()))
		res.AttachMetrics(m.name, rep.telemetry)
		res.AttachSLO(m.name, rep.slo)
		writeTimeline(res, timelineTag("chaos", m.name), rep.timeline, rep.slo)
		if m.faulted && len(logged) == 0 {
			logged = rep.faultEvents
		}
	}
	res.Note("default plan: WAN flap 2s, WAN brownout 5s (rate/10, +20%% loss), gateway crash 2s (sessions+cache lost), host crash 3s, 1.5s partition, plus 3 seeded-random link events")
	res.Note("resilient = exponential-backoff WTP retransmission, origin retries with 2s per-attempt timeouts, stale-cache degradation, 3 app-level retries with session re-establishment")
	res.Note("fragile = single-shot WTP, no retries anywhere: every PDU lost to an outage is a lost transaction")
	for _, ev := range logged {
		if ev.Detail != "" {
			res.Note("fault: %s %s %s (%s) at %s", ev.Phase, ev.Kind, ev.Target, ev.Detail, fmtDur(ev.At))
			continue
		}
		res.Note("fault: %s %s %s at %s", ev.Phase, ev.Kind, ev.Target, fmtDur(ev.At))
	}
	cp.Note("attribution: per-boundary sweep assigning each interval of a transaction to its deepest active span's layer; shares sum to 100%% of traced time")
	cp.Note("traced counts completed and abandoned transactions alike; abandoned ones end at their final app-level failure")
	return []*Result{res, cp}
}
