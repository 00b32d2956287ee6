// Command mcload runs the synthetic mobile commerce workload against a
// freshly built six-component system and prints the capacity report:
// throughput, per-operation latency percentiles and failures.
//
// Usage:
//
//	mcload [-bearer wlan|cellular] [-wlan 802.11b|...] [-cell gprs|...]
//	       [-users N] [-duration 2m] [-think 2s] [-seed N]
//	       [-trace out.json] [-trace-sample N]
//	       [-scale] [-gateways G] [-cells C] [-stations S] [-remote M]
//	       [-shards N] [-metrics]
//	       [-timeline out.json] [-timeline-interval D] [-slo default|FILE]
//	       [-cpuprofile f] [-memprofile f] [-mutexprofile f]
//
// With -trace FILE, every sampled operation becomes a causal span tree and
// the run ends by writing a Chrome trace-event (Perfetto) JSON file plus a
// per-layer critical-path attribution table. -trace-sample N keeps every
// Nth operation (deterministic 1-in-N sampling by trace ID) — the right
// tool at load-test scale, where tracing every operation would be noise.
//
// With -scale, mcload switches from the full-fidelity deployment to the
// sharded scale tier: -gateways clusters of -cells cell aggregators
// carrying -stations virtual stations each (workload.Flows), partitioned
// along the inter-cluster backbone and executed as one conservative
// parallel discrete-event simulation. -shards N sets the worker-lane
// count; the report, -metrics dump and -trace export are byte-identical
// at any value (wall-clock goes to stderr, never stdout). -remote M
// sends M per mille of every cell's stations to the next cluster's host,
// keeping the cross-shard backbone loaded. Engine internals (window,
// synchronization and steal counters) go to stderr.
//
// With -sync, mcload runs the replicated data tier storm instead:
// -gateways clusters each carry a primary plus -replicas replica members
// (log-shipping replication with quorum acks and lease failover) and
// -cells cells of -devices virtual disconnected devices
// (workload.SyncFlows) writing tentatively and syncing under the chaos
// plan. -policy picks the server conflict rule; -fragile makes devices
// roll back tentative writes on timeout — the lost-update baseline.
// Stdout (totals, lost-update count, convergence, state digest) is
// byte-identical at any -shards value, which verify.sh checks.
//
// With -timeline FILE, every metric in the run's registry is sampled on
// the simulation clock at -timeline-interval and exported as
// deterministic time-series JSON (see internal/obs); on the sharded
// tiers every shard's registry is sampled, prefixed s0., s1., ..., and
// the file is byte-identical at any -shards value. -slo evaluates SLO
// rules over the sampled series and prints the violation intervals:
// "default" picks the built-in rule set matching the selected tier
// (full-fidelity, -scale or -sync); any other value is a built-in set
// name or a JSON rule file.
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"strings"
	"time"

	"mcommerce/internal/cellular"
	"mcommerce/internal/core"
	"mcommerce/internal/device"
	"mcommerce/internal/experiments"
	"mcommerce/internal/mobiledb"
	"mcommerce/internal/mtcp"
	"mcommerce/internal/obs"
	"mcommerce/internal/trace"
	"mcommerce/internal/wireless"
	"mcommerce/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mcload:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("mcload", flag.ContinueOnError)
	bearer := fs.String("bearer", "wlan", "radio bearer: wlan or cellular")
	wlanStd := fs.String("wlan", "802.11b", "WLAN standard for -bearer wlan")
	cellStd := fs.String("cell", "gprs", "cellular standard for -bearer cellular")
	users := fs.Int("users", 10, "virtual user population")
	duration := fs.Duration("duration", 2*time.Minute, "virtual run duration")
	think := fs.Duration("think", 2*time.Second, "mean think time between operations")
	seed := fs.Int64("seed", 1, "simulation seed")
	traceFile := fs.String("trace", "", "write sampled operations as a Chrome trace-event (Perfetto) JSON file and print a critical-path table")
	traceSample := fs.Int("trace-sample", 1, "with -trace, keep every Nth operation (deterministic 1-in-N sampling by trace ID)")
	scale := fs.Bool("scale", false, "run the sharded scale tier (virtual stations on cell aggregators) instead of the full-fidelity deployment")
	sync := fs.Bool("sync", false, "run the replicated data tier storm: virtual disconnected devices syncing to per-cluster replica groups under the chaos plan")
	devices := fs.Int("devices", 100, "with -sync, virtual devices per cell")
	replicas := fs.Int("replicas", 2, "with -sync, replica nodes beside each cluster's primary")
	policy := fs.String("policy", "lww", "with -sync, server conflict policy: lww, server-wins, merge, fragile")
	fragile := fs.Bool("fragile", false, "with -sync, devices roll back tentative writes on timeout (the lost-update baseline)")
	noChaos := fs.Bool("no-chaos", false, "with -sync, skip the per-cluster fault plan")
	writeMean := fs.Duration("write-mean", 2*time.Second, "with -sync, mean gap between a device's disconnected writes")
	syncMean := fs.Duration("sync-mean", 4*time.Second, "with -sync, mean gap between a device's sync attempts")
	gateways := fs.Int("gateways", 4, "with -scale, number of gateway clusters")
	cells := fs.Int("cells", 2, "with -scale, cell aggregator nodes per cluster")
	stations := fs.Int("stations", 50, "with -scale, virtual stations per cell")
	remote := fs.Int("remote", 200, "with -scale, per mille of each cell's stations that target the next cluster's host")
	cc := fs.String("cc", "reno", "TCP congestion control on every full-fidelity endpoint: reno or cubic (output is byte-identical per seed for either; -scale and -sync tiers carry no TCP)")
	shards := fs.Int("shards", 1, "worker lanes for the sharded executor (output is byte-identical at any value)")
	withMetrics := fs.Bool("metrics", false, "with -scale, dump the merged telemetry registry after the run")
	timelineFile := fs.String("timeline", "", "sample every metric on the simulation clock and write the time-series JSON here")
	timelineInterval := fs.Duration("timeline-interval", 100*time.Millisecond, "simulated-time sampling interval for -timeline and -slo")
	sloSpec := fs.String("slo", "", "evaluate SLO rules over the sampled timeline: default (the built-in set for the selected tier), another built-in set name, or a JSON rule file")
	prof := experiments.AddProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceSample < 1 {
		return fmt.Errorf("-trace-sample must be >= 1, got %d", *traceSample)
	}
	if *shards < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", *shards)
	}
	if *timelineInterval <= 0 {
		return fmt.Errorf("-timeline-interval must be > 0, got %v", *timelineInterval)
	}
	obsCfg := obsOpts{timeline: *timelineFile, interval: *timelineInterval, slo: *sloSpec}
	if *sloSpec != "" && !strings.EqualFold(*sloSpec, "default") {
		if _, err := obs.ResolveRules(*sloSpec); err != nil {
			return fmt.Errorf("-slo: %w", err)
		}
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer prof.Stop()
	if *sync {
		pol, err := mobiledb.ParsePolicy(*policy)
		if err != nil {
			return err
		}
		return runSync(syncOpts{
			seed: *seed, gateways: *gateways, cells: *cells, devices: *devices,
			replicas: *replicas, remote: *remote, shards: *shards,
			policy: pol, fragile: *fragile, noChaos: *noChaos,
			writeMean: *writeMean, syncMean: *syncMean,
			duration: *duration, metrics: *withMetrics,
			obs: obsCfg,
		}, w)
	}
	if *scale {
		return runScale(scaleOpts{
			seed: *seed, gateways: *gateways, cells: *cells, stations: *stations,
			remote: *remote, shards: *shards,
			think: *think, duration: *duration,
			metrics: *withMetrics, traceFile: *traceFile, traceSample: *traceSample,
			obs: obsCfg,
		}, w)
	}

	ccName, err := mtcp.ParseCC(*cc)
	if err != nil {
		return err
	}
	cfg := core.MCConfig{Seed: *seed, CC: ccName}
	switch strings.ToLower(*bearer) {
	case "wlan":
		cfg.Bearer = core.BearerWLAN
		std, err := wlanStandard(*wlanStd)
		if err != nil {
			return err
		}
		cfg.WLANStandard = std
	case "cellular":
		cfg.Bearer = core.BearerCellular
		std, err := cellStandard(*cellStd)
		if err != nil {
			return err
		}
		cfg.CellStandard = std
	default:
		return fmt.Errorf("unknown bearer %q", *bearer)
	}
	profiles := device.Profiles()
	for i := 0; i < *users; i++ {
		cfg.Devices = append(cfg.Devices, profiles[i%len(profiles)])
	}

	mc, err := core.BuildMC(cfg)
	if err != nil {
		return err
	}
	var tl *obs.Timeline
	if obsCfg.active() {
		tl = obs.NewTimeline(obsCfg.interval)
		tl.Attach("", mc.Net)
	}
	if *traceFile != "" {
		mc.Net.Tracer.EnableExport(*traceSample)
	}
	if err := workload.RegisterHandlers(mc.Host); err != nil {
		return err
	}
	runner, err := workload.NewRunner(mc, workload.Config{
		Users: *users, ThinkMean: *think, Duration: *duration,
	})
	if err != nil {
		return err
	}
	report, err := runner.Run()
	if err != nil {
		return err
	}
	bearerName := "WLAN " + cfg.WLANStandard.Name
	if cfg.Bearer == core.BearerCellular {
		bearerName = "cellular " + cfg.CellStandard.Name
	}
	fmt.Fprintf(w, "bearer: %s\n", bearerName)
	fmt.Fprint(w, report.String())
	if err := finishObs(w, obsCfg, tl, "default"); err != nil {
		return err
	}
	if *traceFile != "" {
		if err := exportTrace(w, mc.Net.Tracer.Spans(), *traceFile, "operations"); err != nil {
			return err
		}
	}
	return nil
}

// obsOpts is the resolved observability flag set, shared by every tier.
type obsOpts struct {
	timeline string
	interval time.Duration
	slo      string
}

// active reports whether a timeline needs to be attached at all.
func (o obsOpts) active() bool { return o.timeline != "" || o.slo != "" }

// finishObs evaluates -slo over the sampled timeline (tierSet names the
// built-in rule set "-slo default" resolves to on this tier), prints the
// verdicts and writes the -timeline file.
func finishObs(w io.Writer, o obsOpts, tl *obs.Timeline, tierSet string) error {
	if tl == nil {
		return nil
	}
	var slo []obs.Interval
	if o.slo != "" {
		spec := o.slo
		if strings.EqualFold(spec, "default") {
			spec = tierSet
		}
		rules, err := obs.ResolveRules(spec)
		if err != nil {
			return err
		}
		slo = obs.Evaluate(tl, rules)
		fmt.Fprintf(w, "\nSLO verdicts (%d rules, %d violation intervals):\n", len(rules), len(slo))
		if len(slo) == 0 {
			fmt.Fprintln(w, "  all SLOs held")
		}
		for _, iv := range slo {
			state := "resolved"
			if !iv.Resolved {
				state = "firing at end"
			}
			fmt.Fprintf(w, "  %-24s %-36s %8s .. %-8s (%s, %s)\n",
				iv.Rule, iv.Series, iv.Start, iv.End, iv.End-iv.Start, state)
		}
	}
	if o.timeline != "" {
		f, err := os.Create(o.timeline)
		if err != nil {
			return err
		}
		if err := obs.WriteJSON(f, tl, slo); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		samples := 0
		for _, ws := range tl.Worlds() {
			if s := ws.Samples(); s > samples {
				samples = s
			}
		}
		// The output path is not part of the deterministic report;
		// keep stdout byte-comparable across same-seed runs.
		fmt.Fprintf(os.Stderr, "timeline: %d samples at %s -> %s\n", samples, tl.Interval(), o.timeline)
	}
	return nil
}

// scaleOpts is the resolved -scale flag set.
type scaleOpts struct {
	seed                      int64
	gateways, cells, stations int
	remote, shards            int
	think, duration           time.Duration
	metrics                   bool
	traceFile                 string
	traceSample               int
	obs                       obsOpts
}

// runScale builds and runs the sharded scale world. Everything written
// to w (and the trace file) is deterministic per seed and invariant to
// o.shards; wall-clock goes to stderr only, so two runs at different
// worker counts stay byte-comparable.
func runScale(o scaleOpts, w io.Writer) error {
	sw, err := experiments.BuildScale(experiments.ScaleConfig{
		Seed:            o.seed,
		Gateways:        o.gateways,
		CellsPerGateway: o.cells,
		StationsPerCell: o.stations,
		RemotePerMille:  o.remote,
		ThinkMean:       o.think,
		Duration:        o.duration,
		Workers:         o.shards,
	})
	if err != nil {
		return err
	}
	if o.traceFile != "" {
		for k := 0; k < sw.World.NumShards(); k++ {
			sw.World.Shard(k).Tracer.EnableExport(o.traceSample)
		}
	}
	var tl *obs.Timeline
	if o.obs.active() {
		tl = obs.NewTimeline(o.obs.interval)
		tl.AttachSharded(sw.World)
	}
	start := time.Now()
	rep, err := sw.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wall: %v (%d worker lanes)\n", time.Since(start).Round(time.Millisecond), o.shards)
	// Engine internals vary with worker count, so they go to stderr:
	// stdout stays byte-comparable across counts.
	fmt.Fprintln(os.Stderr, "engine internals:")
	sw.World.EngineSnapshot().WriteText(os.Stderr)

	fmt.Fprintf(w, "scale: %d clusters x %d cells x %d stations = %d virtual stations\n",
		o.gateways, o.cells, o.stations, rep.Stations)
	fmt.Fprintf(w, "shards: %d, lookahead %v\n", rep.Shards, sw.World.Lookahead())
	for c, cl := range rep.Clusters {
		fmt.Fprintf(w, "cluster %d: ops=%d timeouts=%d served=%d\n", c, cl.Ops, cl.Timeouts, cl.Served)
	}
	fmt.Fprintf(w, "total: ops=%d timeouts=%d events=%d now=%v\n",
		rep.Ops, rep.Timeouts, rep.Executed, sw.World.Now())
	if err := finishObs(w, o.obs, tl, "scale"); err != nil {
		return err
	}
	if o.traceFile != "" {
		if err := exportTrace(w, sw.World.Spans(), o.traceFile, "operations"); err != nil {
			return err
		}
	}
	if o.metrics {
		snap := sw.World.Snapshot()
		fmt.Fprintf(w, "\ntelemetry registry (%d metrics):\n", len(snap.Entries))
		return snap.WriteText(w)
	}
	return nil
}

// syncOpts is the resolved -sync flag set.
type syncOpts struct {
	seed                      int64
	gateways, cells, devices  int
	replicas, remote, shards  int
	policy                    mobiledb.Policy
	fragile, noChaos, metrics bool
	writeMean, syncMean       time.Duration
	duration                  time.Duration
	obs                       obsOpts
}

// runSync builds and runs the replicated data tier storm. Stdout is
// deterministic per seed and invariant to o.shards (the verify script
// compares serial and sharded runs byte for byte); wall-clock and engine
// internals go to stderr.
func runSync(o syncOpts, w io.Writer) error {
	sw, err := experiments.BuildSyncStorm(experiments.SyncStormConfig{
		Seed:            o.seed,
		Gateways:        o.gateways,
		CellsPerGateway: o.cells,
		DevicesPerCell:  o.devices,
		Replicas:        o.replicas,
		RemotePerMille:  o.remote,
		Policy:          o.policy,
		Fragile:         o.fragile,
		NoChaos:         o.noChaos,
		WriteMean:       o.writeMean,
		SyncMean:        o.syncMean,
		Duration:        o.duration,
		Workers:         o.shards,
	})
	if err != nil {
		return err
	}
	var tl *obs.Timeline
	if o.obs.active() {
		tl = obs.NewTimeline(o.obs.interval)
		tl.AttachSharded(sw.World)
	}
	start := time.Now()
	rep, err := sw.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wall: %v (%d worker lanes)\n", time.Since(start).Round(time.Millisecond), o.shards)
	if tl != nil {
		for _, in := range sw.Injectors {
			tl.IngestFaults(in)
		}
	}

	fmt.Fprintf(w, "syncstorm: %d clusters x %d cells x %d devices = %d devices, %d-way replication, policy %s\n",
		o.gateways, o.cells, o.devices, rep.Devices, o.replicas+1, o.policy)
	fmt.Fprintf(w, "writes=%d syncs=%d confirmed=%d overridden=%d\n",
		rep.Writes, rep.Syncs, rep.Confirmed, rep.Overridden)
	fmt.Fprintf(w, "conflicts=%d merges=%d duplicates=%d timeouts=%d redirects=%d faults=%d\n",
		rep.Conflicts, rep.Merges, rep.Duplicates, rep.Timeouts, rep.Redirects, rep.Faults)
	fmt.Fprintf(w, "lost=%d (device rollbacks %d + blind overwrites %d)\n",
		rep.Lost(), rep.LostDevice, rep.BlindOverwrites)
	if rep.Converged {
		fmt.Fprintf(w, "converged: yes, %v after the horizon\n", rep.ConvergeAfter)
	} else {
		fmt.Fprintln(w, "converged: NO within the grace window")
	}
	h := fnv.New64a()
	io.WriteString(h, sw.Digest())
	fmt.Fprintf(w, "digest: %016x\n", h.Sum64())
	if err := finishObs(w, o.obs, tl, "syncstorm"); err != nil {
		return err
	}
	if o.metrics {
		snap := sw.World.Snapshot()
		fmt.Fprintf(w, "\ntelemetry registry (%d metrics):\n", len(snap.Entries))
		return snap.WriteText(w)
	}
	return nil
}

// exportTrace writes spans as a Perfetto JSON file and prints the
// critical-path attribution table.
func exportTrace(w io.Writer, spans []trace.Span, path, what string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WritePerfetto(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	bds := trace.Analyze(spans)
	fmt.Fprintf(w, "trace: %d spans, %d sampled %s -> %s\n", len(spans), len(bds), what, path)
	return trace.WriteTable(w, bds)
}

func wlanStandard(name string) (wireless.Standard, error) {
	for _, std := range wireless.Standards() {
		if strings.EqualFold(std.Name, name) ||
			strings.EqualFold(strings.Fields(std.Name)[0], name) {
			return std, nil
		}
	}
	return wireless.Standard{}, fmt.Errorf("unknown WLAN standard %q", name)
}

func cellStandard(name string) (cellular.Standard, error) {
	for _, std := range cellular.Standards() {
		if strings.EqualFold(std.Name, name) {
			return std, nil
		}
	}
	return cellular.Standard{}, fmt.Errorf("unknown cellular standard %q", name)
}
