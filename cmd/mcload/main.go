// Command mcload runs the synthetic mobile commerce workload against a
// freshly built six-component system and prints the capacity report:
// throughput, per-operation latency percentiles and failures.
//
// Usage:
//
//	mcload [-bearer wlan|cellular] [-wlan 802.11b|...] [-cell gprs|...]
//	       [-users N] [-duration 2m] [-think 2s] [-seed N]
//	       [-trace out.json] [-trace-sample N]
//	       [-scale] [-gateways G] [-cells C] [-stations S] [-remote 1..1000]
//	       [-sync] [-devices D] [-replicas R] [-policy P] [-no-chaos]
//	       [-write-mean D] [-sync-mean D]
//	       [-shards N] [-cc reno|cubic] [-metrics]
//	       [-timeline out.json] [-timeline-interval D] [-slo default|SET]
//	       [-cpuprofile f] [-memprofile f] [-mutexprofile f]
//
// With -trace FILE, every sampled operation becomes a causal span tree and
// the run ends by writing a Chrome trace-event (Perfetto) JSON file plus a
// per-layer critical-path attribution table. -trace-sample N keeps every
// Nth operation (deterministic 1-in-N sampling by trace ID) — the right
// tool at load-test scale, where tracing every operation would be noise.
// The -sync tier records no spans, so it rejects -trace.
//
// With -metrics, the report ends with the telemetry registry (merged
// across shards on the -scale and -sync tiers), one line per metric.
//
// With -scale, mcload switches from the full-fidelity deployment to the
// sharded scale tier: -gateways clusters of -cells cell aggregators
// carrying -stations virtual stations each (workload.Flows), one shard
// per cluster joined by the inter-cluster backbone, executed as one
// conservative parallel discrete-event simulation. -shards N sets the
// worker-lane count; the report, -metrics dump and -trace export are
// byte-identical at any value (wall-clock and the lanes that ran, at
// most one per shard, go to stderr, never stdout). -shards takes effect
// only with -scale or -sync: the full-fidelity deployment is one shard,
// so it rejects any value but 1.
// -remote M (1 to 1000) sends M per mille of every cell's stations to
// the next cluster's host, keeping the cross-shard backbone loaded;
// -sync takes the same range for its remote devices. Engine internals
// (window, synchronization and steal counters) go to stderr.
//
// With -sync, mcload runs the replicated data tier storm instead:
// -gateways clusters each carry a primary plus -replicas replica members
// (log-shipping replication with quorum acks and lease failover) and
// -cells cells of -devices virtual disconnected devices
// (workload.SyncFlows) writing tentatively and syncing under the chaos
// plan. -policy picks the server conflict rule: lww, server-wins, or
// fragile, the lost-update baseline, under which devices also roll back
// tentative writes on timeout.
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
// (full-fidelity, -scale or -sync); any other value must name another
// built-in set.
//
// The engine and observability flags (-seed, -cc, -trace, -trace-sample,
// -timeline, -timeline-interval, -slo) are the set mcsim shares,
// registered and validated by internal/experiments, which also registers
// -shards for mcload and mcbench.
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"time"

	"mcommerce/internal/core"
	"mcommerce/internal/device"
	"mcommerce/internal/experiments"
	"mcommerce/internal/metrics"
	"mcommerce/internal/mobiledb"
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
	scale := fs.Bool("scale", false, "run the sharded scale tier (virtual stations on cell aggregators) instead of the full-fidelity deployment")
	sync := fs.Bool("sync", false, "run the replicated data tier storm: virtual disconnected devices syncing to per-cluster replica groups under the chaos plan")
	devices := fs.Int("devices", 100, "with -sync, virtual devices per cell")
	replicas := fs.Int("replicas", 2, "with -sync, replica nodes beside each cluster's primary")
	policy := fs.String("policy", "lww", "with -sync, server conflict policy: lww, server-wins, fragile (the lost-update baseline: devices also roll back tentative writes on timeout)")
	noChaos := fs.Bool("no-chaos", false, "with -sync, skip the per-cluster fault plan")
	writeMean := fs.Duration("write-mean", 2*time.Second, "with -sync, mean gap between a device's disconnected writes")
	syncMean := fs.Duration("sync-mean", 4*time.Second, "with -sync, mean gap between a device's sync attempts")
	gateways := fs.Int("gateways", 4, "with -scale or -sync, number of gateway clusters")
	cells := fs.Int("cells", 2, "with -scale or -sync, cell aggregator nodes per cluster")
	stations := fs.Int("stations", 50, "with -scale, virtual stations per cell")
	remote := fs.Int("remote", 200, "with -scale or -sync, per mille (1-1000) of each cell's stations that target the next cluster's host")
	withMetrics := fs.Bool("metrics", false, "dump the telemetry registry after the run (merged across shards with -scale or -sync)")
	flags := experiments.AddRunFlags(fs, 100*time.Millisecond)
	flags.AddShardsFlag(fs)
	flags.AddObsFlags(fs)
	prof := experiments.AddProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var counts []experiments.Min
	switch {
	case *sync:
		if flags.Trace != "" {
			return fmt.Errorf("-trace is not supported with -sync (the data tier storm records no spans)")
		}
		counts = []experiments.Min{{Flag: "gateways", Value: *gateways, Min: 1},
			{Flag: "cells", Value: *cells, Min: 1}, {Flag: "devices", Value: *devices, Min: 1},
			{Flag: "replicas", Value: *replicas, Min: 1}}
	case *scale:
		counts = []experiments.Min{{Flag: "gateways", Value: *gateways, Min: 1},
			{Flag: "cells", Value: *cells, Min: 1}, {Flag: "stations", Value: *stations, Min: 1}}
	default:
		if flags.Shards != 1 {
			return fmt.Errorf("-shards needs -scale or -sync (the full-fidelity deployment is one shard)")
		}
		counts = []experiments.Min{{Flag: "users", Value: *users, Min: 1}}
	}
	if err := flags.Validate(counts...); err != nil {
		return err
	}
	if (*sync || *scale) && (*remote < 1 || *remote > 1000) {
		return fmt.Errorf("-remote must be in [1, 1000] per mille, got %d", *remote)
	}
	var pol mobiledb.Policy
	if *sync {
		var err error
		pol, err = mobiledb.ParsePolicy(*policy)
		if err != nil {
			return fmt.Errorf("-policy must be lww, server-wins or fragile, got %q", *policy)
		}
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer prof.Stop()
	if *sync {
		return runSync(syncOpts{
			gateways: *gateways, cells: *cells, devices: *devices,
			replicas: *replicas, remote: *remote,
			policy: pol, noChaos: *noChaos,
			writeMean: *writeMean, syncMean: *syncMean,
			duration: *duration, metrics: *withMetrics,
			flags: flags,
		}, w)
	}
	if *scale {
		return runScale(scaleOpts{
			gateways: *gateways, cells: *cells, stations: *stations,
			remote: *remote,
			think:  *think, duration: *duration,
			metrics: *withMetrics,
			flags:   flags,
		}, w)
	}

	cfg, err := experiments.BearerConfig(*bearer, *wlanStd, *cellStd)
	if err != nil {
		return err
	}
	cfg.Seed, cfg.CC = flags.Seed, flags.CC
	profiles := device.Profiles()
	for i := 0; i < *users; i++ {
		cfg.Devices = append(cfg.Devices, profiles[i%len(profiles)])
	}

	mc, err := core.BuildMC(cfg)
	if err != nil {
		return err
	}
	tl := flags.NewTimeline()
	if tl != nil {
		tl.Attach(mc.Net)
	}
	flags.EnableTrace(mc.Net.Tracer)
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
	if err := flags.FinishObs(w, tl, "default"); err != nil {
		return err
	}
	if err := flags.ExportTrace(w, mc.Net.Tracer.Spans(), "operations"); err != nil {
		return err
	}
	if *withMetrics {
		return writeMetrics(w, mc.Metrics().Snapshot())
	}
	return nil
}

// writeMetrics dumps a telemetry registry snapshot as text.
func writeMetrics(w io.Writer, snap metrics.Snapshot) error {
	fmt.Fprintf(w, "\ntelemetry registry (%d metrics):\n", len(snap.Entries))
	return snap.WriteText(w)
}

// scaleOpts is the resolved -scale flag set.
type scaleOpts struct {
	gateways, cells, stations int
	remote                    int
	think, duration           time.Duration
	metrics                   bool
	flags                     *experiments.RunFlags
}

// runScale builds and runs the sharded scale world. Everything written
// to w (and the trace file) is deterministic per seed and invariant to
// -shards; wall-clock goes to stderr only, so two runs at different
// worker counts stay byte-comparable.
func runScale(o scaleOpts, w io.Writer) error {
	sw, err := experiments.BuildScale(experiments.ScaleConfig{
		Seed:            o.flags.Seed,
		Gateways:        o.gateways,
		CellsPerGateway: o.cells,
		StationsPerCell: o.stations,
		RemotePerMille:  o.remote,
		ThinkMean:       o.think,
		Duration:        o.duration,
		Workers:         o.flags.Shards,
	})
	if err != nil {
		return err
	}
	for k := 0; k < sw.World.NumShards(); k++ {
		o.flags.EnableTrace(sw.World.Shard(k).Tracer)
	}
	tl := o.flags.NewTimeline()
	if tl != nil {
		tl.AttachSharded(sw.World)
	}
	start := time.Now()
	rep, err := sw.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wall: %v (%d worker lanes)\n", time.Since(start).Round(time.Millisecond), min(o.flags.Shards, sw.World.NumShards()))
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
	if err := o.flags.FinishObs(w, tl, "scale"); err != nil {
		return err
	}
	if err := o.flags.ExportTrace(w, sw.World.Spans(), "operations"); err != nil {
		return err
	}
	if o.metrics {
		return writeMetrics(w, sw.World.Snapshot())
	}
	return nil
}

// syncOpts is the resolved -sync flag set.
type syncOpts struct {
	gateways, cells, devices int
	replicas, remote         int
	policy                   mobiledb.Policy
	noChaos, metrics         bool
	writeMean, syncMean      time.Duration
	duration                 time.Duration
	flags                    *experiments.RunFlags
}

// runSync builds and runs the replicated data tier storm. Stdout is
// deterministic per seed and invariant to -shards (the verify script
// compares serial and sharded runs byte for byte); wall-clock and engine
// internals go to stderr.
func runSync(o syncOpts, w io.Writer) error {
	sw, err := experiments.BuildSyncStorm(experiments.SyncStormConfig{
		Seed:            o.flags.Seed,
		Gateways:        o.gateways,
		CellsPerGateway: o.cells,
		DevicesPerCell:  o.devices,
		Replicas:        o.replicas,
		RemotePerMille:  o.remote,
		Policy:          o.policy,
		NoChaos:         o.noChaos,
		WriteMean:       o.writeMean,
		SyncMean:        o.syncMean,
		Duration:        o.duration,
		Workers:         o.flags.Shards,
	})
	if err != nil {
		return err
	}
	tl := o.flags.NewTimeline()
	if tl != nil {
		tl.AttachSharded(sw.World)
	}
	start := time.Now()
	rep, err := sw.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wall: %v (%d worker lanes)\n", time.Since(start).Round(time.Millisecond), min(o.flags.Shards, sw.World.NumShards()))
	if tl != nil {
		for _, in := range sw.Injectors {
			tl.IngestFaults(in)
		}
	}

	fmt.Fprintf(w, "syncstorm: %d clusters x %d cells x %d devices = %d devices, %d-way replication, policy %s\n",
		o.gateways, o.cells, o.devices, rep.Devices, o.replicas+1, o.policy)
	fmt.Fprintf(w, "writes=%d syncs=%d confirmed=%d overridden=%d\n",
		rep.Writes, rep.Syncs, rep.Confirmed, rep.Overridden)
	fmt.Fprintf(w, "conflicts=%d duplicates=%d timeouts=%d redirects=%d faults=%d\n",
		rep.Conflicts, rep.Duplicates, rep.Timeouts, rep.Redirects, rep.Faults)
	fmt.Fprintf(w, "lost=%d (device rollbacks %d + blind overwrites %d)\n",
		rep.Lost(), rep.LostDevice, rep.BlindOverwrites)
	if rep.Converged {
		fmt.Fprintf(w, "converged: yes, %v after the horizon\n", rep.ConvergeAfter)
	} else {
		fmt.Fprintln(w, "converged: NO within the grace window")
	}
	h := fnv.New64a()
	io.WriteString(h, sw.Digest(rep))
	fmt.Fprintf(w, "digest: %016x\n", h.Sum64())
	if err := o.flags.FinishObs(w, tl, "syncstorm"); err != nil {
		return err
	}
	if o.metrics {
		return writeMetrics(w, sw.World.Snapshot())
	}
	return nil
}
