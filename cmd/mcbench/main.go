// Command mcbench regenerates the paper's figures and tables from the
// running system.
//
// Usage:
//
//	mcbench [-exp all|fig1|fig2|table1|table2|table3|table4|table5|tcp|mip|ablate]
//	        [-seed N] [-format text|csv] [-parallel N] [-metrics] [-shards N]
//	        [-cc reno|cubic]
//	        [-timeline out.json] [-timeline-interval D]
//	        [-cpuprofile f] [-memprofile f] [-mutexprofile f]
//
// -shards N sets the worker-lane count the sharded experiments ("scale"
// and "syncstorm") execute on. Results are byte-identical at any value — lanes change
// which goroutines run the windows, never what the windows compute. The
// profile flags write pprof CPU/heap/mutex profiles of the invocation,
// the tool for diagnosing shard contention.
//
// With -metrics, experiments that attach telemetry snapshots (chaos, for
// one) additionally print one table per attached snapshot: every registry
// metric's value over that run, in the selected -format.
//
// With -timeline FILE, the experiments that sample telemetry on the
// simulation clock (chaos, syncstorm, tcp's faulted section) export one
// time-series JSON per run next to FILE, tagged with the experiment and
// mode ("out.json" -> "out.chaos-faults-resilient.json", ...), including
// fault annotations and the SLO violation intervals their tables report.
// -timeline-interval sets the sampling interval (default 250ms).
//
// -cc picks the congestion control of every transport-bearing experiment;
// the tcp experiment's named-variant rows keep their own algorithms.
// -seed, -cc, -timeline and -timeline-interval are registered and
// validated by internal/experiments, the flag set mcsim and mcload share;
// -shards is registered there too, for mcbench and mcload.
//
// The chaos experiment traces every transaction and emits an extra
// E-CHAOS-CRITPATH table attributing critical-path latency to layers
// (station, wireless, middleware, wired, host, transport) per mode, so
// the resilient-vs-fragile latency deltas can be read as "where the time
// went" rather than a single end-to-end number.
//
// Each experiment prints an aligned table plus notes; EXPERIMENTS.md
// records a reference run and compares it with the paper.
//
// Independent experiments run concurrently on up to -parallel workers
// (default GOMAXPROCS; 1 forces a serial run). Every experiment builds its
// own simulation world, so the output is byte-identical at any
// parallelism: results are printed in experiment order regardless of
// which worker finished first.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mcommerce/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mcbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mcbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment to run: all, "+strings.Join(experiments.Names(), ", "))
	format := fs.String("format", "text", "output format: text or csv")
	parallel := fs.Int("parallel", 0, "max concurrent experiments (0 = GOMAXPROCS, 1 = serial)")
	withMetrics := fs.Bool("metrics", false, "also print attached telemetry snapshots as per-metric tables")
	flags := experiments.AddRunFlags(fs, experiments.TimelineInterval)
	flags.AddShardsFlag(fs)
	fs.Lookup("timeline").Usage = "export per-run telemetry time series as tagged JSON files next to this path (chaos, syncstorm, tcp)"
	prof := experiments.AddProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "text" && *format != "csv" {
		return fmt.Errorf("unknown format %q (want text or csv)", *format)
	}
	if err := flags.Validate(); err != nil {
		return err
	}
	experiments.Workers = flags.Shards
	experiments.TimelineFile = flags.Timeline
	experiments.TimelineInterval = flags.TimelineInterval
	experiments.CC = flags.CC
	if err := prof.Start(); err != nil {
		return err
	}
	defer prof.Stop()

	registry := experiments.Registry()
	names := experiments.Names()
	if *exp != "all" {
		if _, ok := registry[*exp]; !ok {
			return fmt.Errorf("unknown experiment %q (want all, %s)", *exp, strings.Join(names, ", "))
		}
		names = []string{*exp}
	}
	for _, results := range experiments.RunTasks(experiments.RegistryTasks(names, flags.Seed), *parallel) {
		for _, res := range results {
			all := []*experiments.Result{res}
			if *withMetrics {
				all = append(all, res.MetricsTables()...)
			}
			for _, r := range all {
				if *format == "csv" {
					if err := r.WriteCSV(os.Stdout); err != nil {
						return err
					}
					fmt.Println()
					continue
				}
				fmt.Println(r.String())
			}
		}
	}
	return nil
}
