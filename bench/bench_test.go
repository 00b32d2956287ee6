package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

func TestBenchmarkFileIsValid(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.EndToEnd) < 1 || len(bf.EndToEnd) > 16 || len(bf.PerLayer) < 1 || len(bf.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics", len(bf.EndToEnd), len(bf.PerLayer))
	}
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("metric name %q invalid or repeated", name)
		}
		seen[name] = true
		if !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q invalid", name, unit)
		}
		if better != "higher" && better != "lower" {
			t.Errorf("%s: better %q", name, better)
		}
	}
	setup := false
	for _, m := range bf.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !setup {
		t.Error("no setup_s end-to-end metric in s, lower is better")
	}
	for _, m := range bf.PerLayer {
		check(m.Name, m.Unit, m.Better)
	}
	var want []string
	for _, s := range specs(false) {
		want = append(want, s.name)
	}
	var got []string
	for _, w := range bf.Workloads {
		got = append(got, w.Name)
		if !nameRE.MatchString(w.Name) || w.Why == "" || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("workloads %v, benchmark runs %v", got, want)
	}
}

// runJSON runs the command and decodes the final JSON line.
func runJSON(t *testing.T, args ...string) (report, int) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(append([]string{"-tiny", "-seconds", "0"}, args...), &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("%v: last line not a report: %v\nstdout:\n%s\nstderr:\n%s", args, err, out.String(), errOut.String())
	}
	return rep, code
}

// TestEveryListedMetricIsPrinted runs all four workloads untraced and
// traced and checks that each prints every metric BENCHMARK.json lists,
// with its unit.
func TestEveryListedMetricIsPrinted(t *testing.T) {
	t.Parallel()
	bf := loadBenchmarkFile(t)
	for traced, list := range map[string][]struct{ name, unit string }{"0": pairs(bf, false), "1": pairs(bf, true)} {
		rep, code := runJSON(t, "-seed", "3", "-trace", traced)
		if code != 0 || !rep.Correct || rep.Attempted == 0 {
			t.Fatalf("trace %s: exit %d, report %+v", traced, code, rep)
		}
		if len(rep.Metrics) != len(list)*len(bf.Workloads) {
			t.Errorf("trace %s: %d metrics printed, %d listed for %d workloads", traced, len(rep.Metrics), len(list), len(bf.Workloads))
		}
		for _, w := range bf.Workloads {
			for _, m := range list {
				if v, ok := rep.Metrics[w.Name+"."+m.name]; !ok || v.Unit != m.unit {
					t.Errorf("%s trace %s: %s printed as %+v, listed in %s", w.Name, traced, m.name, v, m.unit)
				}
			}
			if traced == "1" && rep.Metrics[w.Name+".critpath.traces"].Value > 0 {
				sum := 0.0
				for _, l := range critLayers {
					sum += rep.Metrics[w.Name+".critpath."+l.String()+"_share"].Value
				}
				if sum < 0.999999 || sum > 1.000001 {
					t.Errorf("%s: critical-path shares sum to %v", w.Name, sum)
				}
			}
		}
	}
}

func pairs(bf benchmarkFile, perLayer bool) []struct{ name, unit string } {
	var out []struct{ name, unit string }
	if perLayer {
		for _, m := range bf.PerLayer {
			out = append(out, struct{ name, unit string }{m.Name, m.Unit})
		}
		return out
	}
	for _, m := range bf.EndToEnd {
		out = append(out, struct{ name, unit string }{m.Name, m.Unit})
	}
	return out
}

// Simulated metrics and the attempted and failed counts repeat exactly
// for a seed; only host measurements may differ between two runs.
func TestSameSeedSameSimulatedMetrics(t *testing.T) {
	t.Parallel()
	a, codeA := runJSON(t, "-seed", "7")
	b, codeB := runJSON(t, "-seed", "7")
	if codeA != 0 || codeB != 0 {
		t.Fatalf("exit codes %d, %d", codeA, codeB)
	}
	// With -seconds 0 a run measures exactly one round per world seed.
	if a.Attempted != b.Attempted || a.Failed != b.Failed {
		t.Errorf("attempted/failed %d/%d then %d/%d", a.Attempted, a.Failed, b.Attempted, b.Failed)
	}
	for _, s := range specs(true) {
		for _, m := range []string{"txn_p50_ms", "txn_p99_ms"} {
			name := s.name + "." + m
			if a.Metrics[name] != b.Metrics[name] {
				t.Errorf("%s is %v then %v", name, a.Metrics[name], b.Metrics[name])
			}
		}
	}
}

func TestBrokenInvariantFailsTheRun(t *testing.T) {
	// A payment the merchant never received breaks money conservation.
	tamper = func(w world) {
		if s, ok := w.(*shopWorld); ok {
			s.pays++
		}
	}
	defer func() { tamper = nil }()
	rep, code := runJSON(t, "-workload", "shop-wlan")
	if code == 0 || rep.Correct {
		t.Fatalf("exit %d, correct %v: the broken balance went unnoticed", code, rep.Correct)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}
