package trace

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Breakdown attributes one finished transaction's end-to-end latency to
// layers. The attribution is a boundary sweep over the trace's finished
// spans clipped to the root interval: every instant belongs to the
// deepest span active at that instant, so the per-layer durations
// partition the root exactly — they sum to Total with no rounding loss.
// The root itself is active throughout, so time not covered by any child
// (think time, rendering, the residual between requests) lands on the
// root's layer (station for core.txn roots).
type Breakdown struct {
	Trace TraceID
	Name  string // root span name
	Start time.Duration
	Total time.Duration
	// ByLayer is indexed by Layer; entries sum to Total exactly.
	ByLayer [NumLayers]time.Duration
	// Annots counts annotation kinds (drops, retransmissions, backoff
	// waits) across every span of the trace, finished or not.
	Annots map[string]int
}

// Analyze computes a Breakdown per transaction whose root span finished,
// in ascending TraceID order. Traces whose root never finished (crashed
// or truncated transactions) are skipped; unfinished child spans are
// excluded from attribution (their time falls to shallower ancestors).
func Analyze(spans []Span) []Breakdown {
	byTrace, order := groupByTrace(spans)
	out := make([]Breakdown, 0, len(order))
	for _, tr := range order {
		ss := byTrace[tr]
		root := &ss[0]
		if root.Parent != 0 || !root.Finished {
			continue
		}
		bd := Breakdown{
			Trace: tr,
			Name:  root.Name,
			Start: root.Start,
			Total: root.Duration(),
		}
		sweep(ss, root, &bd)
		for i := range ss {
			sp := &ss[i]
			for j := 0; j < int(sp.NAnnots); j++ {
				if bd.Annots == nil {
					bd.Annots = make(map[string]int)
				}
				bd.Annots[sp.Annots[j].Kind]++
			}
		}
		out = append(out, bd)
	}
	return out
}

// liveSpan is a finished span clipped to the root interval, with its
// depth in the trace tree precomputed for the sweep.
type liveSpan struct {
	start, end time.Duration
	layer      Layer
	depth      int
	id         SpanID
}

// sweep runs the deepest-active-span boundary sweep for one trace.
func sweep(ss []Span, root *Span, bd *Breakdown) {
	rs, re := root.Start, root.End
	if re <= rs {
		return
	}
	byID := make(map[SpanID]*Span, len(ss))
	for i := range ss {
		byID[ss[i].ID] = &ss[i]
	}
	depth := make(map[SpanID]int, len(ss))
	var depthOf func(id SpanID) int
	depthOf = func(id SpanID) int {
		if d, ok := depth[id]; ok {
			return d
		}
		// Missing parents (dropped by a re-arm, or cross-trace
		// anomalies) root the chain at depth 1, same as an explicit root.
		d := 1
		if sp := byID[id]; sp != nil && sp.Parent != 0 {
			if _, ok := byID[sp.Parent]; ok {
				d = depthOf(sp.Parent) + 1
			}
		}
		depth[id] = d
		return d
	}

	spans := make([]liveSpan, 0, len(ss))
	bounds := make([]time.Duration, 0, 2*len(ss))
	for i := range ss {
		sp := &ss[i]
		if !sp.Finished {
			continue
		}
		s, e := sp.Start, sp.End
		if s < rs {
			s = rs
		}
		if e > re {
			e = re
		}
		if e <= s && sp.ID != root.ID {
			continue
		}
		spans = append(spans, liveSpan{start: s, end: e, layer: sp.Layer, depth: depthOf(sp.ID), id: sp.ID})
		bounds = append(bounds, s, e)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	prev := rs
	for _, b := range bounds {
		if b <= prev {
			continue
		}
		attribute(spans, prev, b, bd)
		prev = b
	}
	if prev < re {
		attribute(spans, prev, re, bd)
	}
}

// attribute assigns the interval [from, to) to the deepest span active
// across all of it (ties broken toward the later-created span).
func attribute(spans []liveSpan, from, to time.Duration, bd *Breakdown) {
	var best *liveSpan
	for i := range spans {
		sp := &spans[i]
		if sp.start > from || sp.end < to {
			continue
		}
		if best == nil || sp.depth > best.depth || (sp.depth == best.depth && sp.id > best.id) {
			best = sp
		}
	}
	if best != nil {
		bd.ByLayer[best.layer] += to - from
	}
}

// Summary aggregates breakdowns for a table: per-layer totals across N
// transactions.
type Summary struct {
	Count   int
	Total   time.Duration
	ByLayer [NumLayers]time.Duration
	Annots  map[string]int
}

// Summarize folds breakdowns into per-layer totals.
func Summarize(bds []Breakdown) Summary {
	var s Summary
	for i := range bds {
		bd := &bds[i]
		s.Count++
		s.Total += bd.Total
		for l := 0; l < NumLayers; l++ {
			s.ByLayer[l] += bd.ByLayer[l]
		}
		for k, n := range bd.Annots {
			if s.Annots == nil {
				s.Annots = make(map[string]int)
			}
			s.Annots[k] += n
		}
	}
	return s
}

// tableLayers is the presentation order for critical-path tables.
var tableLayers = [...]Layer{
	LayerStation, LayerWireless, LayerMiddleware, LayerWired, LayerHost, LayerTransport, LayerNone,
}

// WriteTable writes the per-layer critical-path attribution of bds as an
// aligned text table. Shares are integer-formatted tenths of a percent,
// so output is deterministic byte-for-byte.
func WriteTable(w io.Writer, bds []Breakdown) error {
	s := Summarize(bds)
	if s.Count == 0 {
		_, err := fmt.Fprintln(w, "critical path: no finished transactions traced")
		return err
	}
	if _, err := fmt.Fprintf(w, "critical path over %d transactions (total %v):\n", s.Count, s.Total); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %-12s %14s %8s\n", "layer", "time", "share"); err != nil {
		return err
	}
	for _, l := range tableLayers {
		d := s.ByLayer[l]
		if d == 0 && (l == LayerNone || l == LayerTransport) {
			continue
		}
		if _, err := fmt.Fprintf(w, "  %-12s %14v %8s\n", l, d, pct(d, s.Total)); err != nil {
			return err
		}
	}
	if len(s.Annots) > 0 {
		kinds := make([]string, 0, len(s.Annots))
		for k := range s.Annots {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		if _, err := fmt.Fprintf(w, "  events:"); err != nil {
			return err
		}
		for _, k := range kinds {
			if _, err := fmt.Fprintf(w, " %s=%d", k, s.Annots[k]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// pct formats num/den as a percentage with one decimal using integer
// arithmetic only.
func pct(num, den time.Duration) string {
	if den <= 0 {
		return "0.0%"
	}
	tenths := (num*1000 + den/2) / den
	return fmt.Sprintf("%d.%d%%", tenths/10, tenths%10)
}
