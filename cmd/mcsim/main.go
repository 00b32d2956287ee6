// Command mcsim builds a complete mobile commerce system (the paper's
// Figure 2) and drives a browsing/application workload across it, printing
// the component inventory and per-layer statistics.
//
// Usage:
//
//	mcsim [-bearer wlan|cellular] [-wlan 802.11b|802.11a|802.11g|hiperlan2|bluetooth]
//	      [-cell gprs|edge|gsm|cdma|cdma2000|wcdma] [-middleware wap|imode]
//	      [-clients N] [-rounds N] [-seed N] [-replicas R] [-parallel N] [-faults]
//	      [-metrics] [-metrics-format text|csv|openmetrics]
//	      [-cc reno|cubic] [-db-replicas N]
//	      [-trace out.json] [-trace-sample N]
//	      [-timeline out.json] [-timeline-interval D] [-slo default|SET]
//	      [-cpuprofile f] [-memprofile f] [-mutexprofile f]
//
// The profile flags write pprof CPU/heap/mutex-contention profiles for
// the whole invocation.
//
// With -trace FILE, every transaction becomes a causal span tree — root
// span at the station, per-hop link spans, middleware and host serve
// spans, transport connection spans — and the run ends by writing the
// whole forest as a Chrome trace-event (Perfetto) JSON file plus printing
// a per-layer critical-path attribution table. The export is
// deterministic: two runs at the same seed write byte-identical files.
// -trace-sample N keeps every Nth transaction (deterministic 1-in-N
// sampling by trace ID); a sampled file's events are a strict subset of
// the unsampled run's. Every packet drop is annotated, with its reason,
// on the span of the transaction that sent the packet.
//
// With -metrics, the report ends with the full telemetry registry: every
// counter, gauge and latency histogram any layer registered, one line per
// metric, sorted by hierarchical name (simnet.link.wan.dropped_queue.ab,
// wap.wtp.gateway.retransmits, ...). The dump is deterministic per seed —
// two runs at the same seed produce byte-identical trees. -metrics-format
// csv emits the same entries as CSV for scripting; openmetrics emits the
// OpenMetrics/Prometheus text exposition format (sanitised names,
// `_total` counters, cumulative `le`-labelled buckets, `# EOF`), which
// scripts/omlint validates.
//
// With -timeline FILE, the run's telemetry becomes a time series instead
// of a single end-of-run snapshot: every registered metric is sampled on
// the simulation clock at -timeline-interval (default 100ms) and written
// as deterministic JSON — cumulative readings and per-window deltas for
// counters, windowed p50/p99 recomputed from bucket deltas for latency
// histograms, plus every fault-injector event as an annotation stream.
// Two runs at the same seed write byte-identical timelines. With -slo,
// the named built-in rule set ("default", or another set's name) is
// evaluated over the sampled series — windowed latency quantile
// thresholds, multi-window error-budget burn rates, value bounds — and
// the report gains the firing/resolved intervals with exact simulated
// timestamps; the intervals also land in the timeline JSON.
//
// With -db-replicas N > 0, the host computer's database gets a replicated
// data tier (internal/repl behind core.BuildDataTier): N replica nodes
// hang off the wired router beside the primary on the host node, the
// primary ships its WAL to them with quorum commit and lease failover,
// and the report gains a data-tier line (members, leader, commit index,
// convergence). Replication traffic rides the same simulated links as
// everything else, so it is delayed, dropped and traced like any other
// flow.
//
// With -faults, the default chaos plan (see internal/faults) runs against
// the deployment during the workload: WAN flap, brownout, gateway and host
// crashes and a short partition, all on the simulation clock, so two runs
// at the same seed inject byte-identical fault sequences. The report gains
// the fault plan and the applied-fault log.
//
// With -replicas R > 1, the same scenario runs R times at seeds seed,
// seed+1, ..., seed+R-1 on up to -parallel concurrent workers (default
// GOMAXPROCS). Each replica builds its own simulation world, so replicas
// are race-free and their reports are printed in seed order, byte-identical
// to running them one at a time. -trace and -timeline need a single
// replica.
//
// The engine and observability flags (-seed, -cc, -trace, -trace-sample,
// -timeline, -timeline-interval, -slo) are the set mcload shares,
// registered and validated by internal/experiments.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mcommerce/internal/cellular"
	"mcommerce/internal/core"
	"mcommerce/internal/device"
	"mcommerce/internal/experiments"
	"mcommerce/internal/faults"
	"mcommerce/internal/obs"
	"mcommerce/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mcsim:", err)
		os.Exit(1)
	}
}

// scenario is one fully resolved simulation configuration, shared
// read-only across replicas.
type scenario struct {
	radio      core.MCConfig // the bearer and its standard
	middleware string
	clients    int
	rounds     int
	dbReplicas int
	faults     bool
	metrics    bool
	metricsFmt string
	flags      experiments.RunFlags
}

func run(args []string) error {
	fs := flag.NewFlagSet("mcsim", flag.ContinueOnError)
	bearer := fs.String("bearer", "wlan", "radio bearer: wlan or cellular")
	wlanStd := fs.String("wlan", "802.11b", "WLAN standard (Table 4): bluetooth, 802.11b, 802.11a, hiperlan2, 802.11g")
	cellStd := fs.String("cell", "gprs", "cellular standard (Table 5): gsm, tdma, cdma, gprs, edge, cdma2000, wcdma")
	middleware := fs.String("middleware", "wap", "middleware path for the workload: wap or imode")
	clients := fs.Int("clients", 5, "number of mobile stations (cycled through Table 2)")
	rounds := fs.Int("rounds", 10, "browse transactions per station")
	replicas := fs.Int("replicas", 1, "independent replicas at consecutive seeds")
	parallel := fs.Int("parallel", 0, "max concurrent replicas (0 = GOMAXPROCS, 1 = serial)")
	withFaults := fs.Bool("faults", false, "inject the default fault plan (link flaps, brownout, gateway and host crashes, partition) during the run")
	withMetrics := fs.Bool("metrics", false, "dump the full telemetry registry (every layer's counters, gauges and latency histograms) after the run")
	metricsFormat := fs.String("metrics-format", "text", "telemetry dump format: text, csv or openmetrics")
	dbReplicas := fs.Int("db-replicas", 0, "attach a replicated data tier with this many replicas beside the primary (0 = no data tier)")
	flags := experiments.AddRunFlags(fs, 100*time.Millisecond)
	flags.AddObsFlags(fs)
	profiles := experiments.AddProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := flags.Validate(
		experiments.Min{Flag: "clients", Value: *clients, Min: 1},
		experiments.Min{Flag: "rounds", Value: *rounds},
		experiments.Min{Flag: "replicas", Value: *replicas, Min: 1},
		experiments.Min{Flag: "db-replicas", Value: *dbReplicas},
	); err != nil {
		return err
	}
	if err := profiles.Start(); err != nil {
		return err
	}
	defer profiles.Stop()
	switch strings.ToLower(*metricsFormat) {
	case "text", "csv", "openmetrics":
	default:
		return fmt.Errorf("unknown -metrics-format %q (want text, csv or openmetrics)", *metricsFormat)
	}
	if flags.Trace != "" && *replicas > 1 {
		return fmt.Errorf("-trace requires -replicas 1 (traces from concurrent replicas would interleave)")
	}
	if flags.Timeline != "" && *replicas > 1 {
		return fmt.Errorf("-timeline requires -replicas 1 (concurrent replicas would fight over the file)")
	}

	radio, err := experiments.BearerConfig(*bearer, *wlanStd, *cellStd)
	if err != nil {
		return err
	}
	sc := scenario{
		radio:      radio,
		middleware: *middleware, clients: *clients, rounds: *rounds,
		dbReplicas: *dbReplicas,
		faults:     *withFaults,
		metrics:    *withMetrics, metricsFmt: strings.ToLower(*metricsFormat),
		flags: *flags,
	}

	if *replicas == 1 {
		return runOne(sc, flags.Seed, os.Stdout)
	}

	type report struct {
		out string
		err error
	}
	reports := experiments.Fan(*replicas, *parallel, func(i int) report {
		var b strings.Builder
		err := runOne(sc, flags.Seed+int64(i), &b)
		return report{out: b.String(), err: err}
	})
	var firstErr error
	for i, r := range reports {
		fmt.Printf("===== replica %d/%d (seed %d) =====\n", i+1, *replicas, flags.Seed+int64(i))
		os.Stdout.WriteString(r.out)
		if r.err != nil {
			fmt.Printf("replica failed: %v\n", r.err)
			if firstErr == nil {
				firstErr = fmt.Errorf("replica %d (seed %d): %w", i+1, flags.Seed+int64(i), r.err)
			}
		}
		fmt.Println()
	}
	return firstErr
}

// runOne builds the scenario's system at the given seed, drives the
// workload and writes the report to w.
func runOne(sc scenario, seed int64, w io.Writer) error {
	cfg := sc.radio
	cfg.Seed, cfg.DBReplicas, cfg.CC = seed, sc.dbReplicas, sc.flags.CC
	profiles := device.Profiles()
	for i := 0; i < sc.clients; i++ {
		cfg.Devices = append(cfg.Devices, profiles[i%len(profiles)])
	}

	mc, err := core.BuildMC(cfg)
	if err != nil {
		return err
	}
	tl := sc.flags.NewTimeline()
	if tl != nil {
		tl.Attach(mc.Net)
	}
	sc.flags.EnableTrace(mc.Net.Tracer)
	if err := workload.RegisterHandlers(mc.Host); err != nil {
		return err
	}
	if err := mc.Sys.Validate(); err != nil {
		return fmt.Errorf("system model invalid: %w", err)
	}
	fmt.Fprint(w, mc.Sys.Describe())
	fmt.Fprintln(w)

	var injector *faults.Injector
	if sc.faults {
		injector = faults.NewInjector(mc.Net)
		experiments.ChaosTargets(mc, injector)
		plan := experiments.DefaultChaosPlan(seed)
		if err := injector.Schedule(plan); err != nil {
			return err
		}
		fmt.Fprint(w, plan.String())
		fmt.Fprintln(w)
	}

	// For circuit-switched cellular, every station needs a data call.
	pending := 0
	if mc.Cell != nil && mc.Cell.Standard().Switching == cellular.CircuitSwitched {
		for _, cl := range mc.Clients {
			cl := cl
			pending++
			if err := cl.CellMobile.PlaceCall(func() { pending-- }); err != nil {
				return fmt.Errorf("place call: %w", err)
			}
		}
		if err := mc.Net.Sched.RunFor(10 * time.Second); err != nil {
			return err
		}
		if pending > 0 {
			return fmt.Errorf("%d data calls failed to establish", pending)
		}
	}

	useWAP := strings.EqualFold(sc.middleware, "wap")
	var lats []time.Duration
	okCount, errCount := 0, 0
	for i := range mc.Clients {
		i := i
		var round func(n int)
		handle := func(tr core.Transaction) {
			if tr.Err != nil {
				errCount++
			} else {
				okCount++
				lats = append(lats, tr.Latency)
			}
		}
		round = func(n int) {
			if n == sc.rounds {
				return
			}
			done := func(tr core.Transaction) {
				handle(tr)
				round(n + 1)
			}
			if useWAP {
				mc.TransactWAP(i, "/shop", done)
			} else {
				mc.TransactIMode(i, "/shop", done)
			}
		}
		round(0)
	}
	if err := mc.Net.Sched.RunFor(time.Hour); err != nil {
		return err
	}

	var sum, max time.Duration
	for _, l := range lats {
		sum += l
		if l > max {
			max = l
		}
	}
	mean := time.Duration(0)
	if len(lats) > 0 {
		mean = sum / time.Duration(len(lats))
	}
	fmt.Fprintf(w, "workload: %d stations x %d rounds over %s\n", len(mc.Clients), sc.rounds, strings.ToUpper(sc.middleware))
	fmt.Fprintf(w, "transactions: %d ok, %d failed\n", okCount, errCount)
	fmt.Fprintf(w, "latency: mean %s, max %s\n", mean.Round(100*time.Microsecond), max.Round(100*time.Microsecond))

	fmt.Fprintln(w, "\nper-layer statistics:")
	if mc.WLAN != nil {
		fmt.Fprintf(w, "  wireless LAN (%s): delivered=%d lostErr=%d lostRange=%d queueDrop=%d\n",
			mc.WLAN.Standard().Name, mc.WLAN.Delivered, mc.WLAN.LostErrors, mc.WLAN.LostRange, mc.WLAN.DroppedQ)
	}
	if mc.Cell != nil {
		fmt.Fprintf(w, "  cellular (%s): delivered=%d lostErr=%d lostRange=%d queueDrop=%d blocked=%d\n",
			mc.Cell.Standard().Name, mc.Cell.Delivered, mc.Cell.LostErrors, mc.Cell.LostRange, mc.Cell.DroppedQ, mc.Cell.BlockedCalls)
	}
	if mc.WAP != nil {
		st := mc.WAP.Stats()
		fmt.Fprintf(w, "  WAP gateway: sessions=%d requests=%d translations=%d bytesToAir=%d\n",
			st.Sessions, st.Requests, st.Translations, st.BytesToAir)
	}
	if mc.IMode != nil {
		st := mc.IMode.Stats()
		fmt.Fprintf(w, "  i-mode portal: requests=%d filtered=%d bytesToAir=%d\n",
			st.Requests, st.Filtered, st.BytesToAir)
	}
	hs := mc.Host.Server.Stats()
	fmt.Fprintf(w, "  host computer: requests=%d notFound=%d bytesServed=%d\n", hs.Requests, hs.NotFound, hs.BytesServed)
	if injector != nil {
		fs := injector.Stats()
		fmt.Fprintf(w, "  fault injection: applied=%d (linkDown=%d brownout=%d crash=%d partition=%d ifaceDown=%d)\n",
			fs.Total(), fs.LinkDowns, fs.Brownouts, fs.Crashes, fs.Partitions, fs.IfaceDowns)
		for _, l := range injector.Log() {
			fmt.Fprintf(w, "    %s\n", l)
		}
	}
	commits, aborts, tables := mc.Host.DB.Stats()
	fmt.Fprintf(w, "  database server: commits=%d aborts=%d tables=%d\n", commits, aborts, tables)
	if dt := mc.DataTier; dt != nil {
		leader := -1
		commit, term := 0, 0
		if p := dt.Primary(); p != nil {
			leader, commit, term = p.Leader(), p.Commit(), p.Term()
		}
		fmt.Fprintf(w, "  data tier: members=%d leader=%d commit=%d term=%d converged=%v\n",
			len(dt.Members), leader, commit, term, dt.Converged())
	}
	for _, cl := range mc.Clients {
		fmt.Fprintf(w, "  station %-24s battery %.4f%% used, free RAM %d MB\n",
			cl.Station.Name()+":", (1-cl.Station.Battery())*100, cl.Station.FreeRAM()>>20)
	}
	if tl != nil && injector != nil {
		tl.IngestFaults(injector)
	}
	if err := sc.flags.FinishObs(w, tl, "default"); err != nil {
		return err
	}
	if err := sc.flags.ExportTrace(w, mc.Net.Tracer.Spans(), "transactions"); err != nil {
		return err
	}
	if sc.metrics {
		snap := mc.Metrics().Snapshot()
		switch sc.metricsFmt {
		case "csv":
			fmt.Fprintf(w, "\ntelemetry registry (%d metrics):\n", len(snap.Entries))
			return snap.WriteCSV(w)
		case "openmetrics":
			// OpenMetrics expositions are self-delimited (# EOF), so no
			// header line: the output can be piped straight to a scraper
			// or to scripts/omlint.
			return obs.WriteOpenMetrics(w, snap)
		default:
			fmt.Fprintf(w, "\ntelemetry registry (%d metrics):\n", len(snap.Entries))
			return snap.WriteText(w)
		}
	}
	return nil
}
