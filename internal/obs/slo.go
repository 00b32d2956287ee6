package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"mcommerce/internal/metrics"
)

// RuleKind selects the SLO condition a Rule evaluates.
type RuleKind string

// The rule kinds.
const (
	// RuleLatency fires while the windowed quantile of a histogram
	// series exceeds Threshold.
	RuleLatency RuleKind = "latency"
	// RuleBurnRate fires while the error-budget burn rate — the bad/total
	// ratio divided by the budget (1-Objective) — is at least BurnFactor
	// over BOTH the short and the long trailing window (the classic
	// multi-window burn-rate alert: the short window proves the problem
	// is still happening, the long one that enough budget burned to
	// matter).
	RuleBurnRate RuleKind = "burn_rate"
	// RuleBound fires while a gauge (or cumulative counter) is above
	// Max.
	RuleBound RuleKind = "bound"
)

// Rule is one declarative SLO condition evaluated over a Timeline.
//
// Series patterns match sampled series names with the shard prefix
// ("s<k>.") stripped first, three ways: an exact name, a dotted suffix
// ("latency" matches "core.txn.wap.latency"), or a single-star glob
// ("workload.flows.*.latency"). A rule fans out: it is evaluated
// independently against every matching series, so one rule covers every
// instance of a per-node metric.
type Rule struct {
	Name string
	Kind RuleKind

	// Latency rules.
	Series    string
	Quantile  float64
	Threshold time.Duration
	Window    time.Duration

	// Burn-rate rules: Bad and Total name the failure and traffic
	// counters; Bad's match decides the fan-out and Total is resolved
	// against the same name stem, so per-node pairs stay paired.
	Bad         string
	Total       string
	Objective   float64
	ShortWindow time.Duration
	LongWindow  time.Duration
	BurnFactor  float64

	// Bound rules.
	Max int64
}

// Interval is one contiguous violation of a rule on one series, with
// exact simulated timestamps: Start is the first sample at which the
// condition held, End the sample at which it stopped holding (Resolved)
// or the last sample of the run (not Resolved).
type Interval struct {
	Rule     string        `json:"rule"`
	Series   string        `json:"series"`
	Start    time.Duration `json:"start_ns"`
	End      time.Duration `json:"end_ns"`
	Resolved bool          `json:"resolved"`
}

// matchSeries reports whether a sampled series name matches a rule
// pattern, after stripping a shard prefix.
func matchSeries(name, pat string) bool {
	name = stripShard(name)
	if star := strings.IndexByte(pat, '*'); star >= 0 {
		return len(name) >= len(pat)-1 &&
			strings.HasPrefix(name, pat[:star]) && strings.HasSuffix(name, pat[star+1:])
	}
	return name == pat || strings.HasSuffix(name, "."+pat)
}

// stripShard removes a leading "s<digits>." shard prefix.
func stripShard(name string) string {
	if len(name) < 3 || name[0] != 's' {
		return name
	}
	i := 1
	for i < len(name) && name[i] >= '0' && name[i] <= '9' {
		i++
	}
	if i > 1 && i < len(name) && name[i] == '.' {
		return name[i+1:]
	}
	return name
}

// windowSamples converts a rule window to a sample count on t's
// interval, at least 1 (sub-interval windows degrade to sample-to-
// sample deltas).
func (t *Timeline) windowSamples(w time.Duration) int {
	n := int(w / t.interval)
	if n < 1 {
		n = 1
	}
	return n
}

// Evaluate runs every rule against every matching series of every
// attached world and returns the violation intervals sorted by
// (Start, Rule, Series). Deterministic: evaluation order and float
// arithmetic depend only on the sampled data.
func Evaluate(t *Timeline, rules []Rule) []Interval {
	var out []Interval
	for _, r := range rules {
		for _, ws := range t.worlds {
			out = append(out, evalWorld(t, ws, r)...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Series < b.Series
	})
	return out
}

func evalWorld(t *Timeline, ws *WorldSampler, r Rule) []Interval {
	var out []Interval
	switch r.Kind {
	case RuleLatency:
		d := t.windowSamples(r.Window)
		for _, s := range ws.series {
			if s.kind != metrics.KindHistogram || !matchSeries(s.name, r.Series) {
				continue
			}
			out = append(out, trace(ws, r.Name, s.name, func(a int) bool {
				return s.WindowQuantile(a-d, a, r.Quantile) > r.Threshold
			})...)
		}
	case RuleBurnRate:
		short, long := t.windowSamples(r.ShortWindow), t.windowSamples(r.LongWindow)
		budget := 1 - r.Objective
		factor := r.BurnFactor
		if factor <= 0 {
			factor = 1
		}
		for _, bad := range ws.series {
			if bad.kind == metrics.KindHistogram || !matchSeries(bad.name, r.Bad) {
				continue
			}
			total := ws.pair(bad.name, r.Total)
			if total == nil {
				continue
			}
			burn := func(a, d int) bool {
				tot := total.ValueAt(a) - total.ValueAt(a-d)
				if tot <= 0 {
					return false
				}
				ratio := float64(bad.ValueAt(a)-bad.ValueAt(a-d)) / float64(tot)
				return ratio >= budget*factor
			}
			out = append(out, trace(ws, r.Name, bad.name, func(a int) bool {
				return burn(a, short) && burn(a, long)
			})...)
		}
	case RuleBound:
		for _, s := range ws.series {
			if s.kind == metrics.KindHistogram || !matchSeries(s.name, r.Series) {
				continue
			}
			out = append(out, trace(ws, r.Name, s.name, func(a int) bool {
				v := s.ValueAt(a)
				return v > r.Max
			})...)
		}
	}
	return out
}

// pair resolves a burn-rate rule's total series for one matched bad
// series. When the total pattern is a bare leaf segment, the bad
// series' final segment is swapped for it on the same stem
// ("s0.web.server.h1.errors" with total="requests" →
// "s0.web.server.h1.requests"), so per-node pairs stay paired no
// matter how the bad pattern matched. Dotted or glob total patterns
// fall back to a whole-world match.
func (ws *WorldSampler) pair(badName, totalPat string) *Series {
	if !strings.ContainsAny(totalPat, ".*") {
		if dot := strings.LastIndexByte(badName, '.'); dot >= 0 {
			want := badName[:dot+1] + totalPat
			for _, s := range ws.series {
				if s.name == want && s.kind != metrics.KindHistogram {
					return s
				}
			}
			return nil
		}
	}
	for _, s := range ws.series {
		if s.kind != metrics.KindHistogram && matchSeries(s.name, totalPat) {
			return s
		}
	}
	return nil
}

// trace runs a per-sample condition over the retained window and folds
// consecutive true samples into intervals.
func trace(ws *WorldSampler, rule, series string, cond func(a int) bool) []Interval {
	first, n := ws.Retained()
	var out []Interval
	open := -1
	for a := first; a < n; a++ {
		if cond(a) {
			if open < 0 {
				open = a
			}
			continue
		}
		if open >= 0 {
			out = append(out, Interval{
				Rule: rule, Series: series,
				Start: ws.TimeAt(open), End: ws.TimeAt(a), Resolved: true,
			})
			open = -1
		}
	}
	if open >= 0 && n > first {
		out = append(out, Interval{
			Rule: rule, Series: series,
			Start: ws.TimeAt(open), End: ws.TimeAt(n - 1), Resolved: false,
		})
	}
	return out
}

// ruleSets names the built-in rule sets DefaultRules knows, in the order
// -slo's error lists them.
var ruleSets = []string{"default", "mc", "chaos", "syncstorm", "tcpfault", "scale"}

// ResolveRules maps an -slo flag value to its built-in rule set. Empty
// means no rules; an unknown name is an error that lists the sets.
func ResolveRules(spec string) ([]Rule, error) {
	if spec == "" {
		return nil, nil
	}
	if rules := DefaultRules(spec); rules != nil {
		return rules, nil
	}
	return nil, fmt.Errorf("obs: unknown SLO rule set %q (want one of %s)", spec, strings.Join(ruleSets, ", "))
}

// DefaultRules returns the built-in rule set for a named scenario, or
// nil for an unknown name. The sets encode this repo's experiment SLOs:
// m-commerce transactions stay interactive, origin error budgets hold,
// sync flows never lose confirmed writes, and transport pathologies
// surface as retransmit budget burn.
func DefaultRules(set string) []Rule {
	switch set {
	case "default", "mc", "chaos":
		return []Rule{
			{
				Name: "wap-txn-p99", Kind: RuleLatency,
				Series: "core.txn.wap.latency", Quantile: 0.99,
				Threshold: 2500 * time.Millisecond, Window: 5 * time.Second,
			},
			{
				Name: "imode-txn-p99", Kind: RuleLatency,
				Series: "core.txn.imode.latency", Quantile: 0.99,
				Threshold: 2500 * time.Millisecond, Window: 5 * time.Second,
			},
			{
				Name: "origin-error-burn", Kind: RuleBurnRate,
				Bad: "errors", Total: "requests", Objective: 0.99,
				ShortWindow: 5 * time.Second, LongWindow: 20 * time.Second, BurnFactor: 2,
			},
		}
	case "syncstorm":
		return []Rule{
			{Name: "sync-no-loss", Kind: RuleBound, Series: "workload.syncflows.*.lost", Max: 0},
			{
				Name: "sync-timeout-burn", Kind: RuleBurnRate,
				Bad: "workload.syncflows.*.timeouts", Total: "syncs", Objective: 0.95,
				ShortWindow: 10 * time.Second, LongWindow: 30 * time.Second, BurnFactor: 1,
			},
			{
				Name: "sync-p99", Kind: RuleLatency,
				Series: "workload.syncflows.*.latency", Quantile: 0.99,
				Threshold: 5 * time.Second, Window: 10 * time.Second,
			},
		}
	case "tcpfault":
		return []Rule{
			{
				Name: "rtt-p99", Kind: RuleLatency,
				Series: "mtcp.*.rtt", Quantile: 0.99,
				Threshold: 600 * time.Millisecond, Window: 5 * time.Second,
			},
			{
				Name: "retransmit-burn", Kind: RuleBurnRate,
				Bad: "retransmits", Total: "segments_sent", Objective: 0.99,
				ShortWindow: 5 * time.Second, LongWindow: 15 * time.Second, BurnFactor: 1,
			},
		}
	case "scale":
		return []Rule{
			{
				Name: "flow-p99", Kind: RuleLatency,
				Series: "workload.flows.*.latency", Quantile: 0.99,
				Threshold: time.Second, Window: 5 * time.Second,
			},
			{
				Name: "flow-timeout-burn", Kind: RuleBurnRate,
				Bad: "workload.flows.*.timeouts", Total: "ops", Objective: 0.99,
				ShortWindow: 2 * time.Second, LongWindow: 10 * time.Second, BurnFactor: 1,
			},
		}
	}
	return nil
}
