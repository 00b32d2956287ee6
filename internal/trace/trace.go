// Package trace is the simulation's causal span tracer: the per-world
// companion to the metrics registry. Where metrics answer "how much, in
// aggregate", trace answers "where and why, per transaction" — one
// m-commerce transaction becomes one span tree crossing every component of
// the paper's Figure 2 (mobile station, wireless network, middleware,
// wired network, host computer), with drops, retransmissions and backoff
// waits attached as annotations.
//
// Like the scheduler and the metrics registry, a Tracer is a
// single-goroutine structure owned by simnet.Network. It is deterministic:
// TraceIDs and SpanIDs are assigned in creation order on the simulated
// clock, so two runs at the same seed produce byte-identical exports.
//
// EnableExport arms recording: every sampled span is kept for the run, for
// Perfetto export (see WritePerfetto), critical-path analysis (see Analyze)
// and the flight-recorder dump the fault injector writes on crash and
// partition events (see Recent). Once the arena has grown, recording a
// span allocates nothing.
//
// Sampling is 1-in-N by TraceID and is decided at StartTrace. IDs are
// consumed even for unsampled transactions, so a sampled run's output is a
// strict subset of an unsampled run at the same seed.
package trace

import "time"

// TraceID identifies one end-to-end transaction. Zero means untraced.
type TraceID uint64

// SpanID identifies one span. IDs are a global creation-order sequence
// (never reused), so a span's ID locates its slot in the tracer's arena.
// Zero means no span.
type SpanID uint64

// Context is the causal coordinate that rides on packets and pending
// protocol state: which transaction, and which span is currently its
// deepest cause. The zero Context means "unsampled" and makes every
// tracer operation a no-op, so untraced hot paths cost one branch.
type Context struct {
	Trace TraceID
	Span  SpanID
}

// Sampled reports whether the context belongs to a sampled transaction.
func (c Context) Sampled() bool { return c.Trace != 0 }

// Layer classifies a span by the paper's system component, for
// critical-path attribution.
type Layer uint8

// Layers. LayerTransport is not a Figure 2 box: it is where transport
// stalls (TCP RTOs, WTP retransmission waits) land, the residual of a
// transport span not covered by deeper per-hop spans.
const (
	LayerNone Layer = iota
	LayerStation
	LayerWireless
	LayerMiddleware
	LayerWired
	LayerHost
	LayerTransport

	// NumLayers sizes per-layer accumulation arrays (index by Layer).
	NumLayers = 7
)

func (l Layer) String() string {
	switch l {
	case LayerStation:
		return "station"
	case LayerWireless:
		return "wireless"
	case LayerMiddleware:
		return "middleware"
	case LayerWired:
		return "wired"
	case LayerHost:
		return "host"
	case LayerTransport:
		return "transport"
	default:
		return "none"
	}
}

// MaxAnnots bounds per-span annotations; overflow is counted, not stored,
// so annotating never allocates.
const MaxAnnots = 6

// Annot is one point event on a span: a retransmission, a drop reason, a
// backoff wait. Kind must be a constant (or otherwise retained) string —
// the tracer stores it without copying.
type Annot struct {
	At   time.Duration
	Kind string
}

// Span is one recorded cause interval. Spans are value types stored in the
// tracer's arena; handles are Contexts, validated by ID on access.
type Span struct {
	ID     SpanID
	Parent SpanID // zero for transaction roots
	Trace  TraceID
	Name   string
	Layer  Layer
	Start  time.Duration
	End    time.Duration
	// Finished distinguishes a closed span from one still open (or
	// abandoned by a crash) when the run ends.
	Finished bool
	NAnnots  uint8
	Annots   [MaxAnnots]Annot
}

// Duration returns End-Start for finished spans and zero otherwise.
func (s *Span) Duration() time.Duration {
	if !s.Finished || s.End < s.Start {
		return 0
	}
	return s.End - s.Start
}

// Tracer records spans for one simulated world. The zero value and nil are
// both safe: every method on a disabled or nil tracer is a no-op. Create
// with New and arm with EnableExport.
type Tracer struct {
	now     func() time.Duration
	enabled bool
	// sampleN samples 1 trace in N (by TraceID); <=1 samples everything.
	sampleN uint64

	spans     []Span // append-only arena: spans[i] has seq first+i+1
	seq       uint64 // spans issued; SpanID = base + seq
	first     uint64 // seq at the last EnableExport
	nextTrace uint64 // traces issued (consumed even when unsampled); TraceID = base + nextTrace
	base      uint64 // ID namespace offset (see SetIDBase)
	current   Context

	annotDropped uint64 // annotations beyond MaxAnnots
}

// New creates a disabled tracer reading timestamps from now (typically the
// scheduler clock).
func New(now func() time.Duration) *Tracer {
	return &Tracer{now: now}
}

// EnableExport arms unbounded recording for post-run export and analysis,
// sampling 1 trace in sampleN (<=1 records every trace). It resets any
// previously recorded spans but never the ID sequences, so enabling
// mid-run keeps IDs aligned with a run that was enabled from the start.
func (t *Tracer) EnableExport(sampleN int) {
	t.enabled = true
	t.setSample(sampleN)
	t.spans = t.spans[:0]
	t.first = t.seq
}

func (t *Tracer) setSample(n int) {
	if n <= 1 {
		t.sampleN = 1
		return
	}
	t.sampleN = uint64(n)
}

// SetIDBase offsets every TraceID and SpanID this tracer issues by base.
// Sharded execution gives each shard's tracer a disjoint base (shard k gets
// k<<48) so contexts, exports and Perfetto pids never collide across
// shards, and a context minted by one shard's tracer safely resolves to nil
// on any other. Call before the first span is recorded; the sampling
// decision stays in local count space, so shard-local output is invariant
// to the base.
func (t *Tracer) SetIDBase(base uint64) {
	if t == nil {
		return
	}
	t.base = base
}

// Enabled reports whether the tracer records spans.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled }

// Traces returns the number of TraceIDs consumed (sampled or not).
func (t *Tracer) Traces() uint64 {
	if t == nil {
		return 0
	}
	return t.nextTrace
}

// AnnotsDropped returns the number of annotations discarded for exceeding
// MaxAnnots on their span.
func (t *Tracer) AnnotsDropped() uint64 {
	if t == nil {
		return 0
	}
	return t.annotDropped
}

// Current returns the ambient context: the span whose synchronous causal
// extent the simulation is currently executing. simnet sets it around
// every packet delivery; protocol layers Swap it around deferred work.
func (t *Tracer) Current() Context {
	if t == nil {
		return Context{}
	}
	return t.current
}

// Swap installs c as the ambient context and returns the previous one.
// Callers must restore the returned context when their extent ends. Safe
// (and a no-op returning zero) on a nil or disabled tracer.
func (t *Tracer) Swap(c Context) Context {
	if t == nil || !t.enabled {
		return Context{}
	}
	prev := t.current
	t.current = c
	return prev
}

// StartTrace opens a new transaction root span. It consumes a TraceID
// whether or not the trace is sampled — keeping IDs aligned across runs
// with different sampling — and returns the zero Context for unsampled
// (or disabled) traces.
func (t *Tracer) StartTrace(name string, layer Layer) Context {
	if t == nil || !t.enabled {
		return Context{}
	}
	t.nextTrace++
	id := TraceID(t.base + t.nextTrace)
	if (t.nextTrace-1)%t.sampleN != 0 {
		return Context{}
	}
	return t.record(id, 0, name, layer)
}

// StartSpan opens a child span under parent. The zero parent context (an
// unsampled transaction) yields the zero Context without recording.
func (t *Tracer) StartSpan(parent Context, name string, layer Layer) Context {
	if t == nil || !t.enabled || parent.Trace == 0 {
		return Context{}
	}
	return t.record(parent.Trace, parent.Span, name, layer)
}

// record appends a new span to the arena; once the arena has grown it
// allocates nothing.
func (t *Tracer) record(tr TraceID, parent SpanID, name string, layer Layer) Context {
	t.seq++
	id := SpanID(t.base + t.seq)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Trace: tr, Name: name, Layer: layer, Start: t.now()})
	return Context{Trace: tr, Span: id}
}

// lookup resolves a context to its span record, or nil when the span was
// never recorded (or was recorded before the last EnableExport reset) or
// belongs to a different tracer's ID namespace (a cross-shard context).
func (t *Tracer) lookup(c Context) *Span {
	if t == nil || !t.enabled || c.Span == 0 {
		return nil
	}
	// i underflows to a huge value for contexts recorded before the last
	// reset or below this tracer's base, so the bounds check rejects them.
	i := uint64(c.Span) - t.base - t.first - 1
	if i >= uint64(len(t.spans)) || t.spans[i].ID != c.Span {
		return nil
	}
	return &t.spans[i]
}

// Finish closes the span at the current time. Finishing an unsampled,
// unknown or already-finished span is a no-op.
func (t *Tracer) Finish(c Context) {
	sp := t.lookup(c)
	if sp == nil || sp.Finished {
		return
	}
	sp.End = t.now()
	sp.Finished = true
}

// Annotate attaches a point event to the span. kind must be a constant (or
// otherwise retained) string; annotation never allocates, and overflow
// beyond MaxAnnots is counted in AnnotsDropped.
func (t *Tracer) Annotate(c Context, kind string) {
	sp := t.lookup(c)
	if sp == nil {
		return
	}
	if int(sp.NAnnots) >= MaxAnnots {
		t.annotDropped++
		return
	}
	sp.Annots[sp.NAnnots] = Annot{At: t.now(), Kind: kind}
	sp.NAnnots++
}

// Spans returns the recorded spans in creation (SpanID) order. The slice is
// freshly allocated.
func (t *Tracer) Spans() []Span {
	if t == nil || !t.enabled {
		return nil
	}
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Recent returns up to n of the most recently started spans, in creation
// order — the flight-recorder dump. The slice is freshly allocated.
func (t *Tracer) Recent(n int) []Span {
	if t == nil || !t.enabled || n <= 0 {
		return nil
	}
	sp := t.spans[max(0, len(t.spans)-n):]
	out := make([]Span, len(sp))
	copy(out, sp)
	return out
}
