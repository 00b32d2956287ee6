package obs

import (
	"encoding/json"
	"io"
	"sort"

	"mcommerce/internal/metrics"
)

// The JSON timeline schema. Every quantity is an integer (counts, or
// nanoseconds for times and durations) and every list is explicitly
// sorted, so a timeline is byte-identical across runs, worker-lane
// counts and platforms — float formatting never enters the encoding.

type jsonTimeline struct {
	Version     int              `json:"version"`
	IntervalNS  int64            `json:"interval_ns"`
	Worlds      []jsonWorld      `json:"worlds"`
	Annotations []jsonAnnotation `json:"annotations"`
	SLO         []jsonInterval   `json:"slo"`
}

type jsonWorld struct {
	Prefix  string       `json:"prefix"`
	First   int          `json:"first"` // absolute index of TimesNS[0]
	Samples int          `json:"samples"`
	TimesNS []int64      `json:"times_ns"`
	Series  []jsonSeries `json:"series"`
}

type jsonSeries struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"`
	Start int    `json:"start"` // absolute sample index of first reading

	// Counters and gauges: cumulative readings, plus per-window deltas
	// for counters (rates = delta / interval).
	Values []int64 `json:"values,omitempty"`
	Deltas []int64 `json:"deltas,omitempty"`

	// Histograms: per-window observation deltas, per-window sum deltas
	// and windowed quantiles recomputed from bucket deltas.
	Counts []int64 `json:"counts,omitempty"`
	SumsNS []int64 `json:"sums_ns,omitempty"`
	P50NS  []int64 `json:"p50_ns,omitempty"`
	P99NS  []int64 `json:"p99_ns,omitempty"`
}

type jsonAnnotation struct {
	AtNS   int64  `json:"at_ns"`
	Kind   string `json:"kind"`
	Target string `json:"target"`
	Phase  string `json:"phase"`
	Detail string `json:"detail,omitempty"`
}

type jsonInterval struct {
	Rule     string `json:"rule"`
	Series   string `json:"series"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Resolved bool   `json:"resolved"`
}

// WriteJSON exports the timeline — sampled series, annotations and the
// given SLO intervals (typically Evaluate's result) — as deterministic
// JSON followed by a newline.
func WriteJSON(w io.Writer, t *Timeline, slo []Interval) error {
	doc := jsonTimeline{
		Version:     1,
		IntervalNS:  int64(t.interval),
		Worlds:      make([]jsonWorld, 0, len(t.worlds)),
		Annotations: []jsonAnnotation{},
		SLO:         []jsonInterval{},
	}
	for _, ws := range t.worlds {
		doc.Worlds = append(doc.Worlds, exportWorld(ws))
	}
	for _, a := range t.Annotations() {
		doc.Annotations = append(doc.Annotations, jsonAnnotation{
			AtNS: int64(a.At), Kind: a.Kind, Target: a.Target, Phase: a.Phase, Detail: a.Detail,
		})
	}
	for _, iv := range slo {
		doc.SLO = append(doc.SLO, jsonInterval{
			Rule: iv.Rule, Series: iv.Series,
			StartNS: int64(iv.Start), EndNS: int64(iv.End), Resolved: iv.Resolved,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&doc)
}

func exportWorld(ws *WorldSampler) jsonWorld {
	first, n := ws.Retained()
	jw := jsonWorld{
		Prefix:  ws.prefix,
		First:   first,
		Samples: ws.n,
		TimesNS: make([]int64, 0, n-first),
		Series:  make([]jsonSeries, 0, len(ws.series)),
	}
	for a := first; a < n; a++ {
		jw.TimesNS = append(jw.TimesNS, int64(ws.TimeAt(a)))
	}
	series := append([]*Series(nil), ws.series...)
	sort.Slice(series, func(i, j int) bool { return series[i].name < series[j].name })
	for _, s := range series {
		jw.Series = append(jw.Series, exportSeries(ws, s, first, n))
	}
	return jw
}

func exportSeries(ws *WorldSampler, s *Series, first, n int) jsonSeries {
	js := jsonSeries{Name: s.name, Kind: s.kind.String(), Start: s.start}
	if s.kind != metrics.KindHistogram {
		js.Values = make([]int64, 0, n-first)
		for a := first; a < n; a++ {
			js.Values = append(js.Values, s.ValueAt(a))
		}
		if s.kind == metrics.KindCounter {
			js.Deltas = make([]int64, 0, n-first)
			for a := first; a < n; a++ {
				js.Deltas = append(js.Deltas, s.ValueAt(a)-s.ValueAt(a-1))
			}
		}
		return js
	}
	js.Counts = make([]int64, 0, n-first)
	js.SumsNS = make([]int64, 0, n-first)
	js.P50NS = make([]int64, 0, n-first)
	js.P99NS = make([]int64, 0, n-first)
	for a := first; a < n; a++ {
		c1, sum1, _ := s.HistAt(a)
		c0, sum0, _ := s.HistAt(a - 1)
		js.Counts = append(js.Counts, int64(c1)-int64(c0))
		js.SumsNS = append(js.SumsNS, int64(sum1)-int64(sum0))
		js.P50NS = append(js.P50NS, int64(s.WindowQuantile(a-1, a, 0.50)))
		js.P99NS = append(js.P99NS, int64(s.WindowQuantile(a-1, a, 0.99)))
	}
	return js
}
