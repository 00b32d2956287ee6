package main

import (
	"strings"
	"testing"

	"mcommerce/internal/core"
	"mcommerce/internal/wireless"
)

func TestRunSmallWLANScenario(t *testing.T) {
	if err := run([]string{"-clients", "2", "-rounds", "2", "-middleware", "imode"}); err != nil {
		t.Errorf("wlan scenario: %v", err)
	}
}

// TestRunFaultedScenarioDeterministic pins same-seed reports byte-identical,
// on a faulted run and on a clean one that ends in the telemetry dump.
func TestRunFaultedScenarioDeterministic(t *testing.T) {
	base := scenario{middleware: "wap", clients: 2, rounds: 2,
		bearer: core.BearerWLAN, wlan: wireless.IEEE80211b}
	faulted, metrics := base, base
	faulted.faults = true
	metrics.metrics = true
	for _, sc := range []scenario{faulted, metrics} {
		var a, b strings.Builder
		if err := runOne(sc, 1, &a); err != nil {
			t.Fatalf("faults=%v metrics=%v: %v", sc.faults, sc.metrics, err)
		}
		if err := runOne(sc, 1, &b); err != nil {
			t.Fatalf("faults=%v metrics=%v rerun: %v", sc.faults, sc.metrics, err)
		}
		if a.String() != b.String() {
			t.Errorf("faults=%v metrics=%v: same-seed reports are not byte-identical", sc.faults, sc.metrics)
		}
		out := a.String()
		if sc.faults {
			if !strings.Contains(out, "fault injection: applied=") {
				t.Error("report missing fault-injection statistics")
			}
			if !strings.Contains(out, "node gateway crash") {
				t.Error("fault log missing the gateway crash")
			}
		}
		if sc.metrics && !strings.Contains(out, "\ntelemetry registry (") {
			t.Error("-metrics report missing the telemetry registry")
		}
	}
}

func TestRunCellularCircuitScenario(t *testing.T) {
	if err := run([]string{"-bearer", "cellular", "-cell", "gsm", "-clients", "1", "-rounds", "1"}); err != nil {
		t.Errorf("gsm scenario: %v", err)
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	cases := [][]string{
		{"-bearer", "carrier-pigeon"},
		{"-bearer", "wlan", "-wlan", "802.11zz"},
		{"-bearer", "cellular", "-cell", "6g"},
		{"-clients", "0"},
		{"-clients", "1", "-rounds", "-1"},
		{"-replicas", "0"},
		// The full-fidelity deployment is one shard: mcsim has no lanes
		// to pick.
		{"-shards", "4"},
		{"-trace-sample", "0", "-trace", "x.json"},
		{"-timeline-interval", "0"},
		{"-slo", "/no/such/rules.json"},
		{"-cc", "vegas"},
		{"-trace", "x.json", "-replicas", "2"},
		{"-timeline", "x.json", "-replicas", "2"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	if err := run([]string{"-shards", "4"}); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -shards") {
		t.Errorf("-shards 4 err = %v, want an undefined-flag error", err)
	}
}

func TestAnalogBearerFailsCleanly(t *testing.T) {
	err := run([]string{"-bearer", "cellular", "-cell", "amps", "-clients", "1", "-rounds", "1"})
	if err == nil || !strings.Contains(err.Error(), "place call") {
		t.Errorf("AMPS scenario err = %v", err)
	}
}
