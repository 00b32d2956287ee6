package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"mcommerce/internal/metrics"
	"mcommerce/internal/obs"
)

// Result is one experiment's output: a titled table plus free-form notes.
type Result struct {
	Name    string
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
	// Values carries machine-readable measurements keyed by "row/metric"
	// for benchmark assertions.
	Values map[string]float64
	// Metrics holds labelled registry snapshots attached by AttachMetrics.
	// They render separately (MetricsTables) so existing result output is
	// unchanged.
	Metrics []LabelledSnapshot
}

// AttachSLO folds a labelled SLO evaluation (obs.Evaluate's output for
// one run or mode) into Values: per-rule violation counts and total
// violation time under "slo/<label>/<rule>.violations" and
// "…/<rule>.burn_ns", so assertions can gate on SLO health like any
// other measurement.
func (r *Result) AttachSLO(label string, intervals []obs.Interval) {
	byRule := map[string]struct {
		n    int
		burn time.Duration
	}{}
	for _, iv := range intervals {
		agg := byRule[iv.Rule]
		agg.n++
		agg.burn += iv.End - iv.Start
		byRule[iv.Rule] = agg
	}
	for rule, agg := range byRule {
		key := "slo/" + label + "/" + rule
		r.Set(key+".violations", float64(agg.n))
		r.Set(key+".burn_ns", float64(agg.burn))
	}
}

// LabelledSnapshot is one labelled registry reading attached to a result —
// typically the snapshot diff isolating a single run or mode.
type LabelledSnapshot struct {
	Label string
	Snap  metrics.Snapshot
}

// AttachMetrics attaches a labelled registry snapshot (usually a Diff over
// one run) to the result. Counters and gauges also fold into Values under
// "metrics/<label>/<name>", histograms under "…/<name>.count" and
// "…/<name>.p99_ns", so assertions can reach telemetry like any other
// measurement.
func (r *Result) AttachMetrics(label string, snap metrics.Snapshot) {
	r.Metrics = append(r.Metrics, LabelledSnapshot{Label: label, Snap: snap})
	for _, e := range snap.Entries {
		key := "metrics/" + label + "/" + e.Name
		if e.Kind == metrics.KindHistogram {
			r.Set(key+".count", float64(e.Count))
			r.Set(key+".p50_ns", float64(e.P50))
			r.Set(key+".p99_ns", float64(e.P99))
			continue
		}
		r.Set(key, float64(e.Value))
	}
}

// MetricsTables renders each attached snapshot as its own result table
// (one row per metric), for -metrics output in the CLIs.
func (r *Result) MetricsTables() []*Result {
	var out []*Result
	for _, ls := range r.Metrics {
		t := newResult(r.Name+"-metrics", "telemetry: "+ls.Label,
			"metric", "kind", "value", "count", "p50", "p90", "p99")
		for _, e := range ls.Snap.Entries {
			if e.Kind == metrics.KindHistogram {
				t.AddRow(e.Name, e.Kind.String(), "-", strconv.FormatUint(e.Count, 10),
					e.P50.String(), e.P90.String(), e.P99.String())
				continue
			}
			t.AddRow(e.Name, e.Kind.String(), strconv.FormatInt(e.Value, 10), "-", "-", "-", "-")
		}
		out = append(out, t)
	}
	return out
}

// newResult allocates a result shell.
func newResult(name, title string, headers ...string) *Result {
	return &Result{Name: name, Title: title, Headers: headers, Values: make(map[string]float64)}
}

// AddRow appends a table row.
func (r *Result) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// Note appends a free-form note line.
func (r *Result) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Set records a machine-readable value.
func (r *Result) Set(key string, v float64) { r.Values[key] = v }

// Get returns a recorded value (0 if absent).
func (r *Result) Get(key string) float64 { return r.Values[key] }

// String renders the result as an aligned text table.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", r.Name, r.Title)
	if len(r.Headers) > 0 {
		widths := make([]int, len(r.Headers))
		for i, h := range r.Headers {
			widths[i] = len(h)
		}
		for _, row := range r.Rows {
			for i, c := range row {
				if i < len(widths) && len(c) > widths[i] {
					widths[i] = len(c)
				}
			}
		}
		writeRow := func(cells []string) {
			for i, c := range cells {
				if i > 0 {
					b.WriteString("  ")
				}
				fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
			}
			b.WriteByte('\n')
		}
		writeRow(r.Headers)
		for i, w := range widths {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(strings.Repeat("-", w))
		}
		b.WriteByte('\n')
		for _, row := range r.Rows {
			writeRow(row)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// WriteCSV writes the result's table as CSV: a comment line with the
// title, the header row, then the data rows. Machine-readable values and
// notes are omitted (use Values for programmatic access).
func (r *Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if _, err := fmt.Fprintf(w, "# %s — %s\n", r.Name, r.Title); err != nil {
		return err
	}
	if err := cw.Write(r.Headers); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// fmtDur renders a duration with millisecond precision.
func fmtDur(d time.Duration) string {
	return d.Round(100 * time.Microsecond).String()
}

// fmtRate renders bits/second human-readably.
func fmtRate(bps float64) string {
	switch {
	case bps >= 1e6:
		return fmt.Sprintf("%.2f Mbps", bps/1e6)
	case bps >= 1e3:
		return fmt.Sprintf("%.1f kbps", bps/1e3)
	default:
		return fmt.Sprintf("%.0f bps", bps)
	}
}

// fmtBytes renders a byte count human-readably.
func fmtBytes(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// median returns the median of ds (0 for empty input).
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// Registry maps experiment names to their runners, for the CLI.
func Registry() map[string]func(seed int64) []*Result {
	return map[string]func(seed int64) []*Result{
		"fig1":      func(seed int64) []*Result { return []*Result{Figure1(seed)} },
		"fig2":      func(seed int64) []*Result { return []*Result{Figure2(seed)} },
		"table1":    func(seed int64) []*Result { return []*Result{Table1(seed)} },
		"table2":    func(seed int64) []*Result { return []*Result{Table2(seed)} },
		"table3":    func(seed int64) []*Result { return []*Result{Table3(seed)} },
		"table4":    func(seed int64) []*Result { return []*Result{Table4(seed)} },
		"table5":    func(seed int64) []*Result { return []*Result{Table5(seed)} },
		"tcp":       func(seed int64) []*Result { return TCPVariants(seed) },
		"tcpfault":  TCPFaultPlan,
		"handoff":   func(seed int64) []*Result { return []*Result{HandoffSweep(seed)} },
		"adhoc":     func(seed int64) []*Result { return []*Result{AdHocHops(seed)} },
		"mip":       func(seed int64) []*Result { return []*Result{MobileIPRoaming(seed)} },
		"stream":    func(seed int64) []*Result { return []*Result{Streaming(seed)} },
		"cap":       func(seed int64) []*Result { return []*Result{Capacity(seed)} },
		"ablate":    Ablations,
		"chaos":     Chaos,
		"scale":     func(seed int64) []*Result { return []*Result{Scale(seed)} },
		"syncstorm": func(seed int64) []*Result { return []*Result{SyncStorm(seed)} },
	}
}

// Names returns registry keys in run order.
func Names() []string {
	return []string{"fig1", "fig2", "table1", "table2", "table3", "table4", "table5", "tcp", "tcpfault", "handoff", "adhoc", "mip", "stream", "cap", "ablate", "chaos", "scale", "syncstorm"}
}
