package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

type clock struct{ now time.Duration }

func (c *clock) Now() time.Duration { return c.now }

func (c *clock) advance(d time.Duration) { c.now += d }

func TestNilAndDisabledSafe(t *testing.T) {
	var nilT *Tracer
	if nilT.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	c := nilT.StartTrace("x", LayerStation)
	if c.Sampled() {
		t.Fatal("nil tracer sampled a trace")
	}
	nilT.Annotate(c, "k")
	nilT.Finish(c)
	nilT.Swap(Context{})
	if nilT.Current() != (Context{}) || nilT.Spans() != nil || nilT.Recent(5) != nil {
		t.Fatal("nil tracer leaked state")
	}

	ck := &clock{}
	d := New(ck.Now)
	if d.Enabled() {
		t.Fatal("fresh tracer should be disabled")
	}
	if c := d.StartTrace("x", LayerStation); c.Sampled() {
		t.Fatal("disabled tracer sampled a trace")
	}
	if d.Traces() != 0 {
		t.Fatal("disabled tracer consumed a TraceID")
	}
}

func TestSamplingConsumesIDs(t *testing.T) {
	ck := &clock{}
	tr := New(ck.Now)
	tr.EnableExport(4)
	var sampled []TraceID
	for i := 0; i < 10; i++ {
		c := tr.StartTrace("core.txn.wap", LayerStation)
		if c.Sampled() {
			sampled = append(sampled, c.Trace)
			tr.Finish(c)
		}
	}
	if tr.Traces() != 10 {
		t.Fatalf("Traces() = %d, want 10 (IDs consumed even when unsampled)", tr.Traces())
	}
	want := []TraceID{1, 5, 9}
	if len(sampled) != len(want) {
		t.Fatalf("sampled %v, want %v", sampled, want)
	}
	for i := range want {
		if sampled[i] != want[i] {
			t.Fatalf("sampled %v, want %v", sampled, want)
		}
	}
}

func TestSpanLifecycleAndLookup(t *testing.T) {
	ck := &clock{}
	tr := New(ck.Now)
	tr.EnableExport(1)
	root := tr.StartTrace("root", LayerStation)
	ck.advance(time.Millisecond)
	child := tr.StartSpan(root, "child", LayerWired)
	ck.advance(2 * time.Millisecond)
	tr.Annotate(child, "loss")
	tr.Finish(child)
	ck.advance(time.Millisecond)
	tr.Finish(root)
	tr.Finish(root) // double finish is a no-op

	ss := tr.Spans()
	if len(ss) != 2 {
		t.Fatalf("got %d spans, want 2", len(ss))
	}
	r, c := ss[0], ss[1]
	if r.Parent != 0 || c.Parent != r.ID || c.Trace != r.Trace {
		t.Fatalf("bad tree: root=%+v child=%+v", r, c)
	}
	if r.Duration() != 4*time.Millisecond || c.Duration() != 2*time.Millisecond {
		t.Fatalf("durations root=%v child=%v", r.Duration(), c.Duration())
	}
	if c.NAnnots != 1 || c.Annots[0].Kind != "loss" || c.Annots[0].At != 3*time.Millisecond {
		t.Fatalf("bad annotation: %+v", c.Annots[0])
	}
}

func TestAnnotationOverflowCounted(t *testing.T) {
	ck := &clock{}
	tr := New(ck.Now)
	tr.EnableExport(1)
	c := tr.StartTrace("root", LayerStation)
	for i := 0; i < MaxAnnots+3; i++ {
		tr.Annotate(c, "k")
	}
	if tr.AnnotsDropped() != 3 {
		t.Fatalf("AnnotsDropped = %d, want 3", tr.AnnotsDropped())
	}
	if sp := tr.Spans()[0]; int(sp.NAnnots) != MaxAnnots {
		t.Fatalf("NAnnots = %d, want %d", sp.NAnnots, MaxAnnots)
	}
}

// TestRecentAndRearm covers the flight-recorder read and re-arming:
// Recent returns the newest spans in creation order, and EnableExport
// drops recorded spans while IDs keep counting, so a context from before
// the reset no longer resolves and one from after it does.
func TestRecentAndRearm(t *testing.T) {
	ck := &clock{}
	tr := New(ck.Now)
	tr.EnableExport(1)
	var ctxs []Context
	for i := 0; i < 7; i++ {
		ck.advance(time.Millisecond)
		ctxs = append(ctxs, tr.StartTrace("t", LayerStation))
	}
	if got := tr.Recent(2); len(got) != 2 || got[0].ID != 6 || got[1].ID != 7 {
		t.Fatalf("Recent(2) = %+v", got)
	}
	if got := tr.Recent(10); len(got) != 7 || got[0].ID != 1 || got[6].ID != 7 {
		t.Fatalf("Recent(10) returned %d spans, want all 7 in order", len(got))
	}
	if tr.Recent(0) != nil {
		t.Fatal("Recent(0) returned spans")
	}

	tr.EnableExport(1)
	if len(tr.Spans()) != 0 || len(tr.Recent(5)) != 0 {
		t.Fatal("EnableExport kept recorded spans")
	}
	c := tr.StartTrace("t", LayerStation)
	if c.Span != 8 {
		t.Fatalf("span after re-arm has ID %d, want 8 (IDs keep counting)", c.Span)
	}
	tr.Finish(ctxs[6]) // recorded before the reset: a no-op
	tr.Annotate(c, "k")
	tr.Finish(c)
	ss := tr.Spans()
	if len(ss) != 1 || ss[0].ID != 8 || !ss[0].Finished || ss[0].NAnnots != 1 {
		t.Fatalf("spans after re-arm = %+v", ss)
	}
}

// TestRingZeroAllocs pins the span hot path (start, child, annotate, swap,
// finish) at zero allocations per span. EnableExport keeps the arena's
// capacity, so a tracer warmed with more spans than the loop records and
// then re-armed records into memory it already owns.
func TestRingZeroAllocs(t *testing.T) {
	const runs = 1000
	ck := &clock{}
	tr := New(ck.Now)
	tr.EnableExport(1)
	lifecycle := func() {
		root := tr.StartTrace("core.txn.wap", LayerStation)
		child := tr.StartSpan(root, "simnet.link.up", LayerWired)
		tr.Annotate(child, "loss")
		prev := tr.Swap(child)
		tr.Swap(prev)
		tr.Finish(child)
		tr.Finish(root)
	}
	// AllocsPerRun makes one warm-up call before its runs.
	for i := 0; i < runs+1; i++ {
		lifecycle()
	}
	tr.EnableExport(1)
	allocs := testing.AllocsPerRun(runs, lifecycle)
	if allocs != 0 {
		t.Fatalf("span lifecycle allocates %v allocs/op, want 0", allocs)
	}
	ss := tr.Spans()
	if len(ss) != 2*(runs+1) || !ss[len(ss)-1].Finished || ss[len(ss)-1].NAnnots != 1 {
		t.Fatalf("recorded %d spans (want %d), last %+v", len(ss), 2*(runs+1), ss[len(ss)-1])
	}
}

// TestDisabledZeroAllocs pins the disabled-tracer fast path at zero.
func TestDisabledZeroAllocs(t *testing.T) {
	ck := &clock{}
	tr := New(ck.Now)
	allocs := testing.AllocsPerRun(1000, func() {
		c := tr.StartTrace("core.txn.wap", LayerStation)
		tr.Annotate(c, "loss")
		tr.Finish(c)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocates %v allocs/op, want 0", allocs)
	}
}

// genWorkload drives a fixed synthetic span workload; it must behave
// identically whatever the sampling, so sampled runs are comparable.
func genWorkload(ck *clock, tr *Tracer) {
	for i := 0; i < 6; i++ {
		root := tr.StartTrace("core.txn.wap", LayerStation)
		ck.advance(time.Millisecond)
		gw := tr.StartSpan(root, "wap.gw.serve", LayerMiddleware)
		ck.advance(500 * time.Microsecond)
		hop := tr.StartSpan(gw, "simnet.link.gw-host", LayerWired)
		tr.Annotate(hop, "loss")
		ck.advance(250*time.Microsecond + 333*time.Nanosecond)
		tr.Finish(hop)
		tr.Finish(gw)
		ck.advance(time.Millisecond)
		tr.Finish(root)
	}
	// One abandoned trace: root never finishes.
	open := tr.StartTrace("core.txn.imode", LayerStation)
	tr.StartSpan(open, "imode.gw.proxy", LayerMiddleware)
	ck.advance(time.Millisecond)
}

func runWorkload(sampleN int) *Tracer {
	ck := &clock{}
	tr := New(ck.Now)
	tr.EnableExport(sampleN)
	genWorkload(ck, tr)
	return tr
}

func TestExportDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WritePerfetto(&a, runWorkload(1).Spans()); err != nil {
		t.Fatal(err)
	}
	if err := WritePerfetto(&b, runWorkload(1).Spans()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same-seed exports differ")
	}
	if a.Len() == 0 {
		t.Fatal("empty export")
	}
}

func TestExportSampledSubset(t *testing.T) {
	var full, sampled bytes.Buffer
	if err := WritePerfetto(&full, runWorkload(1).Spans()); err != nil {
		t.Fatal(err)
	}
	if err := WritePerfetto(&sampled, runWorkload(4).Spans()); err != nil {
		t.Fatal(err)
	}
	fullLines := make(map[string]int)
	for _, ln := range strings.Split(full.String(), "\n") {
		fullLines[ln]++
	}
	sampledLines := strings.Split(sampled.String(), "\n")
	for _, ln := range sampledLines {
		if fullLines[ln] == 0 {
			t.Fatalf("sampled export line not present in full export: %q", ln)
		}
		fullLines[ln]--
	}
	if len(sampledLines) >= len(strings.Split(full.String(), "\n")) {
		t.Fatal("sampled export is not strictly smaller than full export")
	}
}

func TestExportValidTraceEventJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, runWorkload(1).Spans()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	var complete, instant int
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		switch ph {
		case "X":
			complete++
			if _, ok := ev["ts"].(float64); !ok {
				t.Fatalf("X event missing numeric ts: %v", ev)
			}
			if _, ok := ev["dur"].(float64); !ok {
				t.Fatalf("X event missing numeric dur: %v", ev)
			}
		case "i":
			instant++
		case "M":
		default:
			t.Fatalf("unexpected phase %q in %v", ph, ev)
		}
		if _, ok := ev["pid"].(float64); !ok {
			t.Fatalf("event missing pid: %v", ev)
		}
	}
	// 6 finished transactions x 3 spans, plus annotations and the
	// unfinished trace's instants.
	if complete != 18 {
		t.Fatalf("complete events = %d, want 18", complete)
	}
	if instant == 0 {
		t.Fatal("no instant events (annotations/unfinished spans missing)")
	}
}

func TestAnalyzeSumsExactly(t *testing.T) {
	bds := Analyze(runWorkload(1).Spans())
	if len(bds) != 6 {
		t.Fatalf("got %d breakdowns, want 6 (unfinished root must be skipped)", len(bds))
	}
	for _, bd := range bds {
		var sum time.Duration
		for l := 0; l < NumLayers; l++ {
			sum += bd.ByLayer[l]
		}
		if sum != bd.Total {
			t.Fatalf("trace %d: layer sum %v != total %v", bd.Trace, sum, bd.Total)
		}
		// Known synthetic layout: 1ms station lead-in + 1ms station tail,
		// 500us middleware, 250.000333us wired.
		if bd.ByLayer[LayerStation] != 2*time.Millisecond {
			t.Fatalf("trace %d: station = %v", bd.Trace, bd.ByLayer[LayerStation])
		}
		if bd.ByLayer[LayerMiddleware] != 500*time.Microsecond {
			t.Fatalf("trace %d: middleware = %v", bd.Trace, bd.ByLayer[LayerMiddleware])
		}
		if bd.ByLayer[LayerWired] != 250*time.Microsecond+333*time.Nanosecond {
			t.Fatalf("trace %d: wired = %v", bd.Trace, bd.ByLayer[LayerWired])
		}
		if bd.Annots["loss"] != 1 {
			t.Fatalf("trace %d: annots = %v", bd.Trace, bd.Annots)
		}
	}
}

func TestAnalyzeUnfinishedChildFallsToParent(t *testing.T) {
	ck := &clock{}
	tr := New(ck.Now)
	tr.EnableExport(1)
	root := tr.StartTrace("root", LayerStation)
	ck.advance(time.Millisecond)
	// Child opens but never finishes (e.g. lost to a crash): its time
	// must fall back to the root's layer.
	tr.StartSpan(root, "child", LayerWired)
	ck.advance(time.Millisecond)
	tr.Finish(root)
	bds := Analyze(tr.Spans())
	if len(bds) != 1 {
		t.Fatalf("got %d breakdowns, want 1", len(bds))
	}
	if bds[0].ByLayer[LayerWired] != 0 || bds[0].ByLayer[LayerStation] != 2*time.Millisecond {
		t.Fatalf("unfinished child attributed: %+v", bds[0].ByLayer)
	}
}

func TestAnalyzeDeepestWins(t *testing.T) {
	ck := &clock{}
	tr := New(ck.Now)
	tr.EnableExport(1)
	root := tr.StartTrace("root", LayerStation)
	mid := tr.StartSpan(root, "mid", LayerMiddleware)
	ck.advance(time.Millisecond)
	deep := tr.StartSpan(mid, "deep", LayerWired)
	ck.advance(time.Millisecond)
	tr.Finish(deep)
	ck.advance(time.Millisecond)
	tr.Finish(mid)
	tr.Finish(root)
	bd := Analyze(tr.Spans())[0]
	want := [NumLayers]time.Duration{}
	want[LayerMiddleware] = 2 * time.Millisecond
	want[LayerWired] = time.Millisecond
	if bd.ByLayer != want {
		t.Fatalf("ByLayer = %v, want %v", bd.ByLayer, want)
	}
}

func TestWriteTableDeterministic(t *testing.T) {
	bds := Analyze(runWorkload(1).Spans())
	var a, b bytes.Buffer
	if err := WriteTable(&a, bds); err != nil {
		t.Fatal(err)
	}
	if err := WriteTable(&b, bds); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("table output differs across identical inputs")
	}
	for _, want := range []string{"station", "middleware", "wired", "loss=6"} {
		if !strings.Contains(a.String(), want) {
			t.Fatalf("table missing %q:\n%s", want, a.String())
		}
	}
}

func TestUsecFormatting(t *testing.T) {
	cases := map[time.Duration]string{
		0:                                "0.000",
		333 * time.Nanosecond:            "0.333",
		time.Microsecond:                 "1.000",
		1500 * time.Nanosecond:           "1.500",
		time.Millisecond + 7:             "1000.007",
		-1500 * time.Nanosecond:          "-1.500",
		time.Second + 42*time.Nanosecond: "1000000.042",
	}
	for d, want := range cases {
		if got := usec(d); got != want {
			t.Fatalf("usec(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestPct(t *testing.T) {
	if got := pct(1, 3); got != "33.3%" {
		t.Fatalf("pct(1,3) = %q", got)
	}
	if got := pct(0, 0); got != "0.0%" {
		t.Fatalf("pct(0,0) = %q", got)
	}
	if got := pct(2, 2); got != "100.0%" {
		t.Fatalf("pct(2,2) = %q", got)
	}
}

func TestJSONEscape(t *testing.T) {
	if got := jsonEscape(`plain.name`); got != "plain.name" {
		t.Fatalf("clean string mangled: %q", got)
	}
	if got := jsonEscape("a\"b\\c\nd"); got != `a\"b\\c\u000ad` {
		t.Fatalf("escape = %q", got)
	}
}
