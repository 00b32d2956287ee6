// Command benchgate checks a `go test -bench` text output against the
// speedup floors in a checked-in baseline and fails the build when one
// does not hold. Each floor compares two benchmarks from the same run
// (the timing wheel vs the reference heap at a million live timers), so
// the gate is independent of how fast the host is. Every benchmark's
// ns/op is taken as the median over its -count repetitions, which keeps
// one noisy repetition from failing the gate.
//
//	go test -run '^$' -bench 'TimerChurn1M' -count 5 -benchtime 200ms ./internal/simnet > out.txt
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
	// MinSpeedup requires median(Num) / median(Den) >= Min.
	MinSpeedup []SpeedupGate `json:"min_speedup"`
}

// SpeedupGate is one required ratio between two measured benchmarks.
type SpeedupGate struct {
	Num string  `json:"num"`
	Den string  `json:"den"`
	Min float64 `json:"min"`
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
		num, okN := samples[g.Num]
		den, okD := samples[g.Den]
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

// parseSamples reads benchmark lines ("BenchmarkX-8  N  12.3 ns/op ...")
// and returns every ns/op reading per benchmark name, procs suffix
// stripped, one per -count repetition.
func parseSamples(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]float64{}
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
		for i := 2; i+1 < len(fields); i++ {
			if fields[i+1] == "ns/op" {
				v, err := strconv.ParseFloat(fields[i], 64)
				if err != nil {
					return nil, fmt.Errorf("bad ns/op for %s: %q", name, fields[i])
				}
				out[name] = append(out[name], v)
				break
			}
		}
	}
	return out, sc.Err()
}
