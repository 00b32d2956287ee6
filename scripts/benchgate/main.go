// Command benchgate checks a `go test -bench` text output against the
// speedup floors and allocation ceilings in a checked-in baseline and
// fails the build when one does not hold. Each floor compares two
// benchmarks from the same run (the timing wheel vs the reference heap at
// a million live timers), so the gate is independent of how fast the
// host is; each ceiling caps a benchmark's allocs/op, which does not
// depend on the host either (run with -benchmem). Every reading is taken
// as the median over its -count repetitions, which keeps one noisy
// repetition from failing the gate.
//
//	go test -run '^$' -bench 'TimerChurn1M' -count 5 -benchtime 200ms -benchmem ./internal/simnet > out.txt
//	go run ./scripts/benchgate -baseline scripts/bench_baseline.json out.txt
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Baseline is the checked-in expectation set.
type Baseline struct {
	// Note documents where the floors came from.
	Note string `json:"note,omitempty"`
	// MinSpeedup requires median(Num) / median(Den) >= Min, on ns/op.
	MinSpeedup []SpeedupGate `json:"min_speedup"`
	// MaxAllocs requires median allocs/op of Bench <= Max.
	MaxAllocs []AllocGate `json:"max_allocs"`
}

// SpeedupGate is one required ratio between two measured benchmarks.
type SpeedupGate struct {
	Num string  `json:"num"`
	Den string  `json:"den"`
	Min float64 `json:"min"`
}

// AllocGate is one allocation ceiling.
type AllocGate struct {
	Bench string  `json:"bench"`
	Max   float64 `json:"max"`
}

func main() {
	baselinePath := flag.String("baseline", "", "baseline JSON file (required)")
	flag.Parse()
	if *baselinePath == "" || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchgate -baseline baseline.json benchoutput.txt")
		os.Exit(2)
	}
	var base Baseline
	raw, err := os.ReadFile(*baselinePath)
	if err == nil {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		err = dec.Decode(&base)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
	samples, err := parseSamples(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
	failed := false
	for _, g := range base.MinSpeedup {
		num, okN := samples[g.Num]["ns/op"]
		den, okD := samples[g.Den]["ns/op"]
		if !okN || !okD {
			fmt.Fprintf(os.Stderr, "benchgate: FAIL speedup %s / %s: benchmark missing from output\n", g.Num, g.Den)
			failed = true
			continue
		}
		ratio := median(num) / median(den)
		if ratio < g.Min {
			fmt.Fprintf(os.Stderr, "benchgate: FAIL speedup %s / %s = %.2fx (medians of %d/%d runs), need >= %.2fx\n",
				g.Num, g.Den, ratio, len(num), len(den), g.Min)
			failed = true
		} else {
			fmt.Printf("benchgate: ok speedup %s / %s = %.2fx (medians of %d/%d runs, floor %.2fx)\n",
				g.Num, g.Den, ratio, len(num), len(den), g.Min)
		}
	}
	for _, g := range base.MaxAllocs {
		v, ok := samples[g.Bench]["allocs/op"]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchgate: FAIL allocs %s: no allocs/op in output (run with -benchmem)\n", g.Bench)
			failed = true
			continue
		}
		if m := median(v); m > g.Max {
			fmt.Fprintf(os.Stderr, "benchgate: FAIL allocs %s = %.0f allocs/op (median of %d runs), ceiling %.0f\n",
				g.Bench, m, len(v), g.Max)
			failed = true
		} else {
			fmt.Printf("benchgate: ok allocs %s = %.0f allocs/op (median of %d runs, ceiling %.0f)\n",
				g.Bench, m, len(v), g.Max)
		}
	}
	if failed {
		os.Exit(1)
	}
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// parseSamples reads benchmark lines ("BenchmarkX-8  N  12.3 ns/op
// 96 B/op  2 allocs/op ...") and returns every reading per benchmark name
// (procs suffix stripped) and unit, one per -count repetition.
func parseSamples(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		// Readings are value/unit pairs after the iteration count.
		for i := 2; i+1 < len(fields); i += 2 {
			unit := fields[i+1]
			if unit != "ns/op" && unit != "allocs/op" {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad %s for %s: %q", unit, name, fields[i])
			}
			if out[name] == nil {
				out[name] = map[string][]float64{}
			}
			out[name][unit] = append(out[name][unit], v)
		}
	}
	return out, sc.Err()
}
