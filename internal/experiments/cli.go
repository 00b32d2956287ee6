package experiments

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mcommerce/internal/cellular"
	"mcommerce/internal/core"
	"mcommerce/internal/mtcp"
	"mcommerce/internal/obs"
	"mcommerce/internal/trace"
	"mcommerce/internal/wireless"
)

// The command-line surface shared by mcsim, mcload and mcbench: one
// registration and one validation for the engine and observability
// flags, and one end-of-run path for SLO verdicts, the timeline file and
// the trace export. -shards is registered only by the commands that run
// worlds of several shards (mcload and mcbench); mcsim's deployment is
// one world on one scheduler.

// RunFlags holds the values of the shared flags.
type RunFlags struct {
	Seed int64
	// CC is the TCP congestion control algorithm; Validate canonicalises
	// it.
	CC               string
	Timeline         string
	TimelineInterval time.Duration

	// Registered by AddShardsFlag only; the default is one lane.
	Shards int

	// Registered by AddObsFlags only; the defaults disable them.
	Trace       string
	TraceSample int
	SLO         string
}

// AddRunFlags registers -seed, -cc, -timeline and -timeline-interval
// (defaulting to interval) on fs.
func AddRunFlags(fs *flag.FlagSet, interval time.Duration) *RunFlags {
	f := &RunFlags{Shards: 1, TraceSample: 1}
	fs.Int64Var(&f.Seed, "seed", 1, "simulation seed")
	fs.StringVar(&f.CC, "cc", mtcp.CCReno, "TCP congestion control on every modeled endpoint: reno or cubic (output is byte-identical per seed for either)")
	fs.StringVar(&f.Timeline, "timeline", "", "sample every metric on the simulation clock and write the time-series JSON here")
	fs.DurationVar(&f.TimelineInterval, "timeline-interval", interval, "simulated-time sampling interval for -timeline and -slo")
	return f
}

// AddShardsFlag registers -shards on fs: the flag of the commands that
// run worlds of several shards (mcload -scale and -sync, mcbench).
func (f *RunFlags) AddShardsFlag(fs *flag.FlagSet) {
	fs.IntVar(&f.Shards, "shards", 1, "worker lanes for the sharded executor (output is byte-identical at any value)")
}

// AddObsFlags registers -trace, -trace-sample and -slo on fs: the flags
// of the commands that report on the worlds they run (mcsim, mcload).
func (f *RunFlags) AddObsFlags(fs *flag.FlagSet) {
	fs.StringVar(&f.Trace, "trace", "", "write sampled transactions as a Chrome trace-event (Perfetto) JSON file and print a critical-path table")
	fs.IntVar(&f.TraceSample, "trace-sample", 1, "with -trace, keep every Nth transaction (deterministic 1-in-N sampling by trace ID)")
	fs.StringVar(&f.SLO, "slo", "", "evaluate a built-in SLO rule set over the sampled timeline: default (the set for the run), mc, chaos, syncstorm, tcpfault or scale")
}

// BearerConfig resolves the -bearer, -wlan and -cell flags of the
// full-fidelity commands (mcsim, mcload) into the radio half of a
// deployment's configuration.
func BearerConfig(bearer, wlanStd, cellStd string) (core.MCConfig, error) {
	var cfg core.MCConfig
	var err error
	switch strings.ToLower(bearer) {
	case "wlan":
		cfg.Bearer = core.BearerWLAN
		cfg.WLANStandard, err = wireless.ByName(wlanStd)
	case "cellular":
		cfg.Bearer = core.BearerCellular
		cfg.CellStandard, err = cellular.ByName(cellStd)
	default:
		err = fmt.Errorf("unknown bearer %q", bearer)
	}
	return cfg, err
}

// Min is a command-specific count flag and the least value it accepts.
type Min struct {
	Flag       string
	Value, Min int
}

// Validate checks the shared flags and the given counts, and
// canonicalises CC. An -slo other than "default" (which names the rule
// set of whatever tier runs) must name a built-in set, so a bad name
// fails before the run does.
func (f *RunFlags) Validate(counts ...Min) error {
	counts = append(counts, Min{"shards", f.Shards, 1}, Min{"trace-sample", f.TraceSample, 1})
	for _, c := range counts {
		if c.Value < c.Min {
			return fmt.Errorf("-%s must be >= %d, got %d", c.Flag, c.Min, c.Value)
		}
	}
	if f.TimelineInterval <= 0 {
		return fmt.Errorf("-timeline-interval must be > 0, got %v", f.TimelineInterval)
	}
	if f.SLO != "" && !strings.EqualFold(f.SLO, "default") {
		if _, err := obs.ResolveRules(f.SLO); err != nil {
			return fmt.Errorf("-slo: %w", err)
		}
	}
	cc, err := mtcp.ParseCC(f.CC)
	if err != nil {
		return err
	}
	f.CC = cc
	return nil
}

// NewTimeline returns a timeline sampling every -timeline-interval when
// -timeline or -slo needs one, and nil otherwise.
func (f *RunFlags) NewTimeline() *obs.Timeline {
	if f.Timeline == "" && f.SLO == "" {
		return nil
	}
	return obs.NewTimeline(f.TimelineInterval)
}

// EnableTrace arms t for export at the -trace-sample rate when -trace is
// set.
func (f *RunFlags) EnableTrace(t *trace.Tracer) {
	if f.Trace != "" {
		t.EnableExport(f.TraceSample)
	}
}

// FinishObs evaluates -slo over tl (tierSet names the built-in rule set
// "-slo default" resolves to), prints the verdicts to w and writes the
// -timeline file. A nil tl is a no-op.
func (f *RunFlags) FinishObs(w io.Writer, tl *obs.Timeline, tierSet string) error {
	if tl == nil {
		return nil
	}
	var slo []obs.Interval
	if f.SLO != "" {
		spec := f.SLO
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
	if f.Timeline == "" {
		return nil
	}
	if err := writeFile(f.Timeline, func(out io.Writer) error { return obs.WriteJSON(out, tl, slo) }); err != nil {
		return err
	}
	samples := 0
	for _, ws := range tl.Worlds() {
		samples = max(samples, ws.Samples())
	}
	// The output path is not part of the deterministic report; keep
	// stdout byte-comparable across same-seed runs.
	fmt.Fprintf(os.Stderr, "timeline: %d samples at %s -> %s\n", samples, tl.Interval(), f.Timeline)
	return nil
}

// ExportTrace writes spans to the -trace file as Perfetto JSON and prints
// the critical-path attribution table to w, naming the sampled roots
// what ("transactions", "operations"). Without -trace it is a no-op.
func (f *RunFlags) ExportTrace(w io.Writer, spans []trace.Span, what string) error {
	if f.Trace == "" {
		return nil
	}
	if err := writeFile(f.Trace, func(out io.Writer) error { return trace.WritePerfetto(out, spans) }); err != nil {
		return err
	}
	bds := trace.Analyze(spans)
	fmt.Fprintf(w, "trace: %d spans, %d sampled %s -> %s\n", len(spans), len(bds), what, f.Trace)
	return trace.WriteTable(w, bds)
}

// writeFile creates path, fills it with write and closes it, reporting
// the first error.
func writeFile(path string, write func(io.Writer) error) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(out)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}
