package obs

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mcommerce/internal/simnet"
)

// sloWorld drives a latency histogram and an error/request counter pair
// through a known outage window [4s, 8s): inside it, observations take
// 5s and half the requests fail; outside, 50ms and no failures.
func sloWorld() *simnet.Network {
	net := simnet.NewNetwork(simnet.NewScheduler(1))
	h := net.Metrics.Histogram("core.txn.wap.latency")
	req := net.Metrics.Counter("web.server.origin.requests")
	errs := net.Metrics.Counter("web.server.origin.errors")
	var step func()
	step = func() {
		now := net.Sched.Now()
		bad := now >= 4*time.Second && now < 8*time.Second
		req.Add(10)
		if bad {
			h.Observe(5 * time.Second)
			errs.Add(5)
		} else {
			h.Observe(50 * time.Millisecond)
		}
		if now < 16*time.Second {
			net.Sched.After(100*time.Millisecond, step)
		}
	}
	// Off the sampling boundary so tick/sample ordering never ties.
	net.Sched.At(50*time.Millisecond, step)
	return net
}

func runSLO(t *testing.T, rules []Rule) []Interval {
	t.Helper()
	net := sloWorld()
	tl := NewTimeline(time.Second)
	tl.Attach(net)
	if err := net.Sched.RunFor(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	return Evaluate(tl, rules)
}

func TestLatencyRuleFiresDuringOutage(t *testing.T) {
	ivs := runSLO(t, []Rule{{
		Name: "p99", Kind: RuleLatency, Series: "core.txn.wap.latency",
		Quantile: 0.99, Threshold: time.Second, Window: 2 * time.Second,
	}})
	if len(ivs) != 1 {
		t.Fatalf("got %d intervals, want 1: %+v", len(ivs), ivs)
	}
	iv := ivs[0]
	if !iv.Resolved {
		t.Error("outage interval not resolved after latencies recovered")
	}
	// Slow observations start after 4s, so the first violating sample is
	// the 5s one; the 2s trailing window keeps the condition true until
	// every sample in it post-dates the 8s heal.
	if iv.Start != 5*time.Second {
		t.Errorf("interval starts at %v, want 5s", iv.Start)
	}
	if iv.End < 8*time.Second || iv.End > 11*time.Second {
		t.Errorf("interval ends at %v, want within (8s, 11s]", iv.End)
	}
}

func TestBurnRateRulePairsSeriesAndFires(t *testing.T) {
	ivs := runSLO(t, []Rule{{
		Name: "err-burn", Kind: RuleBurnRate,
		Bad: "errors", Total: "requests", Objective: 0.99,
		ShortWindow: time.Second, LongWindow: 4 * time.Second, BurnFactor: 2,
	}})
	if len(ivs) != 1 {
		t.Fatalf("got %d intervals, want 1: %+v", len(ivs), ivs)
	}
	iv := ivs[0]
	if iv.Series != "web.server.origin.errors" {
		t.Errorf("interval on %q, want the errors series", iv.Series)
	}
	if !iv.Resolved || iv.Start < 4*time.Second || iv.Start > 6*time.Second {
		t.Errorf("burn interval = %+v, want resolved and starting in [4s, 6s]", iv)
	}
	// A 50% error ratio burns the 1% budget 50x over: well past factor 2
	// in the short window. The long window lags the heal, so the
	// interval must outlive the outage by at least one long-window span.
	if iv.End < 8*time.Second {
		t.Errorf("burn interval ended at %v, before the outage healed", iv.End)
	}
}

func TestBoundRule(t *testing.T) {
	ivs := runSLO(t, []Rule{{
		Name: "no-errors", Kind: RuleBound, Series: "web.server.origin.errors", Max: 0,
	}})
	// A cumulative counter that went nonzero never recovers: one
	// unresolved interval from the first bad sample to the end.
	if len(ivs) != 1 || ivs[0].Resolved {
		t.Fatalf("got %+v, want one unresolved interval", ivs)
	}
	if ivs[0].Start != 5*time.Second {
		t.Errorf("bound interval starts at %v, want 5s (first sample seeing errors)", ivs[0].Start)
	}
}

func TestHealthyRulesStayQuiet(t *testing.T) {
	// Thresholds far above the outage's worst case: nothing fires.
	ivs := runSLO(t, []Rule{{
		Name: "p99", Kind: RuleLatency, Series: "core.txn.wap.latency",
		Quantile: 0.99, Threshold: time.Minute, Window: 2 * time.Second,
	}})
	if len(ivs) != 0 {
		t.Fatalf("got %+v, want none", ivs)
	}
}

func TestMatchSeries(t *testing.T) {
	cases := []struct {
		name, pat string
		want      bool
	}{
		{"core.txn.wap.latency", "core.txn.wap.latency", true},
		{"s3.core.txn.wap.latency", "core.txn.wap.latency", true},
		{"core.txn.wap.latency", "latency", true},
		{"core.txn.wap.latency", "atency", false},
		{"workload.flows.c2.latency", "workload.flows.*.latency", true},
		{"s1.workload.flows.c2.latency", "workload.flows.*.latency", true},
		{"workload.syncflows.c2.latency", "workload.flows.*.latency", false},
		{"wap.gw.g.origin_errors", "errors", false},
		{"web.server.h.errors", "errors", true},
		{"sx.web.server.h.errors", "web.server.*.errors", false},
	}
	for _, c := range cases {
		if got := matchSeries(c.name, c.pat); got != c.want {
			t.Errorf("matchSeries(%q, %q) = %v, want %v", c.name, c.pat, got, c.want)
		}
	}
}

// validateRules checks that every rule names its kind's required
// fields with usable values.
func validateRules(rules []Rule) error {
	for i, r := range rules {
		if r.Name == "" {
			return fmt.Errorf("rule %d has no name", i)
		}
		switch r.Kind {
		case RuleLatency:
			if r.Series == "" || r.Quantile <= 0 || r.Quantile > 1 || r.Threshold <= 0 {
				return fmt.Errorf("latency rule %q needs series, quantile in (0,1], threshold", r.Name)
			}
		case RuleBurnRate:
			if r.Bad == "" || r.Total == "" || r.Objective <= 0 || r.Objective >= 1 {
				return fmt.Errorf("burn_rate rule %q needs bad, total, objective in (0,1)", r.Name)
			}
			if r.ShortWindow <= 0 || r.LongWindow < r.ShortWindow {
				return fmt.Errorf("burn_rate rule %q needs short_window <= long_window", r.Name)
			}
		case RuleBound:
			if r.Series == "" {
				return fmt.Errorf("bound rule %q needs series", r.Name)
			}
		default:
			return fmt.Errorf("rule %q has unknown kind %q", r.Name, r.Kind)
		}
	}
	return nil
}

func TestDefaultRuleSetsValidate(t *testing.T) {
	for _, set := range ruleSets {
		rules := DefaultRules(set)
		if len(rules) == 0 {
			t.Errorf("set %q is empty", set)
			continue
		}
		if err := validateRules(rules); err != nil {
			t.Errorf("set %q does not validate: %v", set, err)
		}
	}
	if DefaultRules("no-such-set") != nil {
		t.Error("unknown set returned rules")
	}
	if _, err := ResolveRules("chaos"); err != nil {
		t.Error("named set failed to resolve")
	}
	_, err := ResolveRules("/no/such/file.json")
	if err == nil || !strings.Contains(err.Error(), "syncstorm") {
		t.Errorf("unknown set: err = %v, want one that lists the sets", err)
	}
}
