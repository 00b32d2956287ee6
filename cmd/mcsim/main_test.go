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

func TestRunFaultedScenarioDeterministic(t *testing.T) {
	sc := scenario{middleware: "wap", clients: 2, rounds: 2, faults: true,
		bearer: core.BearerWLAN, wlan: wireless.IEEE80211b}
	var a, b strings.Builder
	if err := runOne(sc, 1, &a); err != nil {
		t.Fatalf("faulted run: %v", err)
	}
	if err := runOne(sc, 1, &b); err != nil {
		t.Fatalf("faulted rerun: %v", err)
	}
	if a.String() != b.String() {
		t.Error("same-seed faulted reports are not byte-identical")
	}
	if !strings.Contains(a.String(), "fault injection: applied=") {
		t.Error("report missing fault-injection statistics")
	}
	if !strings.Contains(a.String(), "node gateway crash") {
		t.Error("fault log missing the gateway crash")
	}
}

// TestRunShardsGolden pins -shards byte-identity on the mcsim surface:
// worker lanes over the (single-partition) full-fidelity world must not
// change a byte of the report, including the telemetry dump.
func TestRunShardsGolden(t *testing.T) {
	base := scenario{middleware: "wap", clients: 2, rounds: 2, metrics: true,
		bearer: core.BearerWLAN, wlan: wireless.IEEE80211b}
	var want string
	for _, shards := range []int{1, 4} {
		sc := base
		sc.flags.Shards = shards
		var b strings.Builder
		if err := runOne(sc, 1, &b); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if shards == 1 {
			want = b.String()
			continue
		}
		if b.String() != want {
			t.Errorf("report differs between -shards 1 and -shards %d", shards)
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
		{"-shards", "0"},
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
}

func TestAnalogBearerFailsCleanly(t *testing.T) {
	err := run([]string{"-bearer", "cellular", "-cell", "amps", "-clients", "1", "-rounds", "1"})
	if err == nil || !strings.Contains(err.Error(), "place call") {
		t.Errorf("AMPS scenario err = %v", err)
	}
}
