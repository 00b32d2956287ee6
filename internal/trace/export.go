package trace

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// WritePerfetto writes spans as Chrome trace-event JSON (the JSON Array
// Format Perfetto ingests: load the file at ui.perfetto.dev). Layout is
// chosen for determinism and for the sampling subset property:
//
//   - Traces are emitted in ascending TraceID order; within a trace,
//     spans in creation order.
//   - pid is the TraceID; tid is the span's per-trace ordinal (order of
//     appearance), so output never encodes global SpanIDs — a 1-in-N
//     sampled export's lines are a strict subset of the unsampled run's.
//   - One event per line, separating comma at the start of every line
//     but the first (again for the subset property).
//   - Timestamps are microseconds with the nanosecond remainder printed
//     as three fixed decimals via integer formatting — no float
//     formatting anywhere.
//
// Finished spans become "X" complete events (cat = layer); unfinished
// spans become instants marked "(unfinished)"; annotations become "i"
// thread-scoped instants on their span's row. Metadata events name each
// process (transaction) and thread (span).
func WritePerfetto(w io.Writer, spans []Span) error {
	byTrace, order := groupByTrace(spans)
	ew := &eventWriter{w: w}
	ew.raw(`{"displayTimeUnit":"ns","traceEvents":[` + "\n")
	for _, tr := range order {
		ss := byTrace[tr]
		rootName := ss[0].Name
		ew.eventf(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":"trace %d: %s"}}`,
			tr, tr, jsonEscape(rootName))
		for tid, sp := range ss {
			ew.eventf(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":"%s"}}`,
				tr, tid, jsonEscape(sp.Name))
			if sp.Finished {
				ew.eventf(`{"ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s,"name":"%s","cat":"%s"}`,
					tr, tid, usec(sp.Start), usec(sp.Duration()), jsonEscape(sp.Name), sp.Layer)
			} else {
				ew.eventf(`{"ph":"i","pid":%d,"tid":%d,"ts":%s,"s":"t","name":"%s (unfinished)","cat":"%s"}`,
					tr, tid, usec(sp.Start), jsonEscape(sp.Name), sp.Layer)
			}
			for i := 0; i < int(sp.NAnnots); i++ {
				a := sp.Annots[i]
				ew.eventf(`{"ph":"i","pid":%d,"tid":%d,"ts":%s,"s":"t","name":"%s","cat":"annot"}`,
					tr, tid, usec(a.At), jsonEscape(a.Kind))
			}
		}
	}
	ew.raw("]}\n")
	return ew.err
}

// groupByTrace buckets spans by TraceID preserving creation order, and
// returns the trace IDs ascending.
func groupByTrace(spans []Span) (map[TraceID][]Span, []TraceID) {
	byTrace := make(map[TraceID][]Span)
	var order []TraceID
	for _, sp := range spans {
		if sp.Trace == 0 {
			continue
		}
		if _, ok := byTrace[sp.Trace]; !ok {
			order = append(order, sp.Trace)
		}
		byTrace[sp.Trace] = append(byTrace[sp.Trace], sp)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	return byTrace, order
}

type eventWriter struct {
	w   io.Writer
	n   int
	err error
}

func (e *eventWriter) raw(s string) {
	if e.err != nil {
		return
	}
	_, e.err = io.WriteString(e.w, s)
}

func (e *eventWriter) eventf(format string, args ...any) {
	if e.err != nil {
		return
	}
	sep := ","
	if e.n == 0 {
		sep = ""
	}
	e.n++
	_, e.err = fmt.Fprintf(e.w, sep+format+"\n", args...)
}

// usec renders a duration as trace-event microseconds with exactly three
// decimals, using only integer formatting.
func usec(d time.Duration) string {
	neg := ""
	if d < 0 {
		neg = "-"
		d = -d
	}
	return fmt.Sprintf("%s%d.%03d", neg, d/time.Microsecond, d%time.Microsecond)
}

// jsonEscape escapes a span/annotation name for embedding in a JSON
// string. Names are controlled identifiers, so this only needs the
// mandatory escapes.
func jsonEscape(s string) string {
	clean := true
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == '"' || c == '\\' || c < 0x20 {
			clean = false
			break
		}
	}
	if clean {
		return s
	}
	out := make([]byte, 0, len(s)+8)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			out = append(out, '\\', c)
		case c < 0x20:
			out = append(out, fmt.Sprintf(`\u%04x`, c)...)
		default:
			out = append(out, c)
		}
	}
	return string(out)
}

// WriteDump writes spans one per line in a compact human-readable form —
// the flight-recorder post-mortem format used by the fault injector.
func WriteDump(w io.Writer, spans []Span) error {
	for i := range spans {
		sp := &spans[i]
		end := "open"
		if sp.Finished {
			end = sp.Duration().String()
		}
		if _, err := fmt.Fprintf(w, "  t%d s%d p%d %-10s %-22s start=%v dur=%s",
			sp.Trace, sp.ID, sp.Parent, sp.Layer, sp.Name, sp.Start, end); err != nil {
			return err
		}
		for j := 0; j < int(sp.NAnnots); j++ {
			if _, err := fmt.Fprintf(w, " !%s@%v", sp.Annots[j].Kind, sp.Annots[j].At); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}
