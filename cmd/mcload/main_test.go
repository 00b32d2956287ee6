package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSmallLoad(t *testing.T) {
	if err := run([]string{"-users", "3", "-duration", "30s"}, io.Discard); err != nil {
		t.Errorf("wlan load: %v", err)
	}
}

func TestRunCellularLoad(t *testing.T) {
	if err := run([]string{"-bearer", "cellular", "-cell", "edge", "-users", "2", "-duration", "20s"}, io.Discard); err != nil {
		t.Errorf("edge load: %v", err)
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	for _, args := range [][]string{
		{"-bearer", "smoke-signals"},
		{"-wlan", "802.11zz"},
		{"-bearer", "cellular", "-cell", "7g"},
		{"-users", "0"},
		{"-shards", "0"},
		// The full-fidelity deployment is one shard: -shards would be
		// silently ignored.
		{"-shards", "4"},
		{"-scale", "-stations", "70000"},
		{"-scale", "-gateways", "0"},
		{"-scale", "-stations", "0"},
		{"-sync", "-devices", "0"},
		{"-sync", "-replicas", "0"},
		// 0 is the configs' "use default" value and > 1000 was silently
		// replaced by it.
		{"-scale", "-remote", "0"},
		{"-scale", "-remote", "1001"},
		{"-sync", "-remote", "0"},
		{"-trace-sample", "0"},
		{"-timeline-interval", "-1s"},
		{"-slo", "/no/such/rules.json"},
		{"-cc", "vegas"},
		// The data tier storm records no spans: -trace would silently
		// write nothing.
		{"-sync", "-trace", filepath.Join(t.TempDir(), "t.json")},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestSyncRejectsMergePolicy pins that -policy merge, a name mobiledb
// does not define, fails flag validation: before the CPU profile starts
// and before any world is built.
func TestSyncRejectsMergePolicy(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.out")
	var out strings.Builder
	err := run([]string{"-sync", "-policy", "merge", "-cpuprofile", prof}, &out)
	if err == nil || !strings.Contains(err.Error(), "lww, server-wins or fragile") {
		t.Fatalf("-sync -policy merge: err = %v, want the accepted policies named", err)
	}
	if _, err := os.Stat(prof); err == nil {
		t.Error("CPU profile started: -policy merge was rejected after flag validation")
	}
	if out.Len() != 0 {
		t.Errorf("-sync -policy merge wrote output:\n%s", out.String())
	}
}

// TestFullFidelityMetrics pins that -metrics dumps the registry on the
// full-fidelity tier too, through the same text dump as -scale and -sync.
func TestFullFidelityMetrics(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-users", "2", "-duration", "10s", "-metrics"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"\ntelemetry registry (", "simnet.", "wap."} {
		if !strings.Contains(out, want) {
			t.Errorf("full-fidelity -metrics output missing %q:\n%s", want, out)
		}
	}
}

// scaleArgs is the golden scale scenario shared by the cmp tests: small
// enough to run in milliseconds, busy enough that every shard serves
// cross-backbone traffic.
func scaleArgs(shards string, extra ...string) []string {
	args := []string{"-scale", "-seed", "7", "-gateways", "3", "-cells", "2",
		"-stations", "20", "-duration", "5s", "-think", "300ms", "-shards", shards}
	return append(args, extra...)
}

// TestScaleShardsGolden pins the acceptance contract on the command
// surface: -shards 4 output (report + metrics dump + Perfetto trace
// file) is byte-identical to -shards 1 at the same seed.
func TestScaleShardsGolden(t *testing.T) {
	dir := t.TempDir()
	capture := func(shards string) (string, string) {
		tf := filepath.Join(dir, "trace-"+shards+".json")
		var b strings.Builder
		if err := run(scaleArgs(shards, "-metrics", "-trace", tf), &b); err != nil {
			t.Fatalf("-shards %s: %v", shards, err)
		}
		raw, err := os.ReadFile(tf)
		if err != nil {
			t.Fatal(err)
		}
		// The report echoes the trace path, which necessarily differs
		// between the two invocations; normalize it before comparing.
		return strings.ReplaceAll(b.String(), tf, "TRACE"), string(raw)
	}
	out1, trace1 := capture("1")
	out4, trace4 := capture("4")
	if out1 != out4 {
		t.Errorf("stdout differs between -shards 1 and -shards 4:\n--- shards=1\n%s\n--- shards=4\n%s", out1, out4)
	}
	if trace1 != trace4 {
		t.Error("Perfetto trace files differ between -shards 1 and -shards 4")
	}
	for _, want := range []string{"scale: 3 clusters", "shards: 3, lookahead", "telemetry registry", "trace: "} {
		if !strings.Contains(out1, want) {
			t.Errorf("scale report missing %q:\n%s", want, out1)
		}
	}
}

// TestScaleSameSeedDeterministic re-runs the same invocation twice and
// expects byte-identical output (the weaker property the golden test
// builds on, isolated so a failure points at the right layer).
func TestScaleSameSeedDeterministic(t *testing.T) {
	var a, b strings.Builder
	if err := run(scaleArgs("2"), &a); err != nil {
		t.Fatal(err)
	}
	if err := run(scaleArgs("2"), &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("same-seed scale runs are not byte-identical")
	}
}
