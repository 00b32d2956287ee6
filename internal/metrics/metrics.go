package metrics

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Kind is the type of a registered metric.
type Kind uint8

// The three metric kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "unknown"
	}
}

// Counter is a pre-resolved handle to a monotonically increasing uint64.
// The zero Counter is a valid no-op (reads as 0), so components can carry
// handles unconditionally and work with or without a registry.
type Counter struct{ v *uint64 }

// Inc adds one.
func (c Counter) Inc() {
	if c.v != nil {
		*c.v++
	}
}

// Add adds n.
func (c Counter) Add(n uint64) {
	if c.v != nil {
		*c.v += n
	}
}

// Value returns the current count (0 for the zero handle).
func (c Counter) Value() uint64 {
	if c.v == nil {
		return 0
	}
	return *c.v
}

// Gauge is a pre-resolved handle to a settable int64 level.
// The zero Gauge is a valid no-op.
type Gauge struct{ v *int64 }

// Set replaces the gauge's value.
func (g Gauge) Set(v int64) {
	if g.v != nil {
		*g.v = v
	}
}

// Add shifts the gauge by delta (negative deltas allowed).
func (g Gauge) Add(delta int64) {
	if g.v != nil {
		*g.v += delta
	}
}

// Value returns the current level (0 for the zero handle).
func (g Gauge) Value() int64 {
	if g.v == nil {
		return 0
	}
	return *g.v
}

// hist is the storage behind a Histogram handle: fixed bucket bounds
// (strictly increasing, with an implicit +Inf overflow bucket) plus the
// running count, sum and extrema.
type hist struct {
	bounds   []time.Duration // len B
	counts   []uint64        // len B+1; counts[B] is the overflow bucket
	count    uint64
	sum      time.Duration
	min, max time.Duration
}

// Histogram is a pre-resolved handle to a fixed-bucket latency histogram.
// Observations are simulated durations; quantiles are computed from the
// bucket counts at snapshot time (upper-bound rule), so they are exactly
// reproducible. The zero Histogram is a valid no-op.
type Histogram struct{ h *hist }

// Observe records one duration. It performs no allocation: the bucket scan
// is a short linear walk over the fixed bounds.
func (h Histogram) Observe(d time.Duration) {
	hh := h.h
	if hh == nil {
		return
	}
	if hh.count == 0 || d < hh.min {
		hh.min = d
	}
	if d > hh.max {
		hh.max = d
	}
	hh.count++
	hh.sum += d
	for i, b := range hh.bounds {
		if d <= b {
			hh.counts[i]++
			return
		}
	}
	hh.counts[len(hh.bounds)]++
}

// Count returns the number of observations (0 for the zero handle).
func (h Histogram) Count() uint64 {
	if h.h == nil {
		return 0
	}
	return h.h.count
}

// Sum returns the total of all observations.
func (h Histogram) Sum() time.Duration {
	if h.h == nil {
		return 0
	}
	return h.h.sum
}

// Quantile returns the q-quantile (q in [0,1]) under the deterministic
// upper-bound rule: the smallest bucket bound whose cumulative count
// reaches ceil(q*count). Observations in the overflow bucket report the
// maximum observed value. Returns 0 with no observations.
func (h Histogram) Quantile(q float64) time.Duration {
	if h.h == nil {
		return 0
	}
	return h.h.quantile(q)
}

func (hh *hist) quantile(q float64) time.Duration {
	return QuantileFromBuckets(hh.bounds, hh.counts, hh.count, hh.max, q)
}

// QuantileFromBuckets computes the q-quantile from a raw bucket
// distribution under the same deterministic upper-bound rule Histogram
// uses: the smallest bound whose cumulative count reaches ceil(q*count),
// with overflow-bucket observations answering max. counts may be len
// (bounds) or len(bounds)+1 (trailing overflow bucket); count is the
// total observation count and max the largest observation (the overflow
// answer). It is the shared primitive behind Histogram.Quantile,
// Snapshot.Diff and the windowed percentiles in internal/obs, so a
// quantile computed from sampled bucket deltas is bit-for-bit the value
// the live histogram would have reported over the same window.
func QuantileFromBuckets(bounds []time.Duration, counts []uint64, count uint64, max time.Duration, q float64) time.Duration {
	if count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(count))
	if float64(target) < q*float64(count) || target == 0 {
		target++ // ceil, and at least the first observation
	}
	n := len(bounds)
	if len(counts) < n {
		n = len(counts)
	}
	var cum uint64
	for i := 0; i < n; i++ {
		cum += counts[i]
		if cum >= target {
			return bounds[i]
		}
	}
	return max
}

// Min returns the smallest observation (0 with no observations).
func (h Histogram) Min() time.Duration {
	if h.h == nil {
		return 0
	}
	return h.h.min
}

// Max returns the largest observation (0 with no observations).
func (h Histogram) Max() time.Duration {
	if h.h == nil {
		return 0
	}
	return h.h.max
}

// Bounds returns the histogram's bucket bounds. The slice is the live
// backing array — callers must treat it as read-only. Nil for the zero
// handle.
func (h Histogram) Bounds() []time.Duration {
	if h.h == nil {
		return nil
	}
	return h.h.bounds
}

// NumBuckets returns len(Bounds())+1: the bounded buckets plus the +Inf
// overflow bucket (0 for the zero handle).
func (h Histogram) NumBuckets() int {
	if h.h == nil {
		return 0
	}
	return len(h.h.counts)
}

// CopyBuckets copies the current bucket counts (including the trailing
// overflow bucket) into dst and returns it, reallocating only when dst
// is too small — so a caller that reuses its slice reads the
// distribution without allocating. Returns dst[:0] for the zero handle.
func (h Histogram) CopyBuckets(dst []uint64) []uint64 {
	if h.h == nil {
		return dst[:0]
	}
	c := h.h.counts
	if cap(dst) < len(c) {
		dst = make([]uint64, len(c))
	}
	dst = dst[:len(c)]
	copy(dst, c)
	return dst
}

// DefaultLatencyBuckets are the fixed bounds used by Histogram when no
// explicit buckets are given: 100µs to 2min, roughly 1-2-5 spaced, which
// spans everything the simulation produces (LAN RTTs to chaos-window
// transaction tails).
func DefaultLatencyBuckets() []time.Duration {
	return []time.Duration{
		100 * time.Microsecond, 200 * time.Microsecond, 500 * time.Microsecond,
		time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
		10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
		100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond,
		time.Second, 2 * time.Second, 5 * time.Second,
		10 * time.Second, 30 * time.Second, time.Minute, 2 * time.Minute,
	}
}

// entry is one registered metric.
type entry struct {
	name string
	kind Kind
	c    *uint64      // counter storage (owned or aliased)
	g    *int64       // gauge storage (owned or aliased)
	gf   func() int64 // gauge callback, evaluated at snapshot time
	h    *hist
}

// Registry holds a simulation world's metrics. It is not safe for
// concurrent use; like the scheduler, it belongs to one simulation
// goroutine. The zero value is not usable — call New. A nil *Registry is
// safe: every method returns no-op handles, so optional instrumentation
// costs one nil check at registration time and nothing afterwards.
type Registry struct {
	byName  map[string]int
	entries []entry
	claimed map[string]int
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{byName: make(map[string]int), claimed: make(map[string]int)}
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.entries)
}

// lookup returns the existing entry for name after checking the kind, or
// -1 when the name is free. Kind mismatches panic: a name can only ever
// hold one type of metric, and silently returning a dead handle would
// lose measurements.
func (r *Registry) lookup(name string, kind Kind) int {
	checkName(name)
	i, ok := r.byName[name]
	if !ok {
		return -1
	}
	if e := &r.entries[i]; e.kind != kind {
		panic(fmt.Sprintf("metrics: %q already registered as %s, re-registered as %s", name, e.kind, kind))
	}
	return i
}

func checkName(name string) {
	if name == "" {
		panic("metrics: empty metric name")
	}
	if strings.ContainsAny(name, ",\n ") {
		panic(fmt.Sprintf("metrics: name %q contains a comma, space or newline", name))
	}
}

func (r *Registry) add(e entry) int {
	r.byName[e.name] = len(r.entries)
	r.entries = append(r.entries, e)
	return len(r.entries) - 1
}

// Counter registers (or finds) a registry-owned counter and returns its
// handle. Registering an existing counter name returns a handle to the
// same storage.
func (r *Registry) Counter(name string) Counter {
	if r == nil {
		return Counter{}
	}
	if i := r.lookup(name, KindCounter); i >= 0 {
		return Counter{v: r.entries[i].c}
	}
	v := new(uint64)
	r.add(entry{name: name, kind: KindCounter, c: v})
	return Counter{v: v}
}

// AliasCounter registers p — a counter field owned by a component struct —
// under name, and returns a handle to it. The field remains the single
// storage location: the component keeps incrementing it directly and the
// registry reads it at snapshot time. Re-aliasing a name to a different
// pointer panics.
func (r *Registry) AliasCounter(name string, p *uint64) Counter {
	if r == nil {
		return Counter{v: p}
	}
	if i := r.lookup(name, KindCounter); i >= 0 {
		if r.entries[i].c != p {
			panic(fmt.Sprintf("metrics: counter %q aliased to two different fields", name))
		}
		return Counter{v: p}
	}
	r.add(entry{name: name, kind: KindCounter, c: p})
	return Counter{v: p}
}

// Gauge registers (or finds) a registry-owned gauge.
func (r *Registry) Gauge(name string) Gauge {
	if r == nil {
		return Gauge{}
	}
	if i := r.lookup(name, KindGauge); i >= 0 {
		if r.entries[i].g == nil {
			panic(fmt.Sprintf("metrics: gauge %q is a GaugeFunc, not settable", name))
		}
		return Gauge{v: r.entries[i].g}
	}
	v := new(int64)
	r.add(entry{name: name, kind: KindGauge, g: v})
	return Gauge{v: v}
}

// GaugeFunc registers a gauge whose value is computed by f at snapshot
// time — for levels a component already tracks (scheduler queue depth,
// store footprint) that would be wasteful to mirror on every change.
// f must be deterministic for deterministic dumps.
func (r *Registry) GaugeFunc(name string, f func() int64) {
	if r == nil {
		return
	}
	if i := r.lookup(name, KindGauge); i >= 0 {
		panic(fmt.Sprintf("metrics: gauge %q registered twice", name))
	}
	r.add(entry{name: name, kind: KindGauge, gf: f})
}

// Histogram registers (or finds) a latency histogram with the default
// buckets.
func (r *Registry) Histogram(name string) Histogram {
	return r.HistogramBuckets(name, nil)
}

// HistogramBuckets registers (or finds) a histogram with explicit bucket
// bounds, which must be strictly increasing. nil bounds mean
// DefaultLatencyBuckets.
func (r *Registry) HistogramBuckets(name string, bounds []time.Duration) Histogram {
	if r == nil {
		return Histogram{}
	}
	if i := r.lookup(name, KindHistogram); i >= 0 {
		return Histogram{h: r.entries[i].h}
	}
	if bounds == nil {
		bounds = DefaultLatencyBuckets()
	} else {
		bounds = append([]time.Duration(nil), bounds...)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q bounds not strictly increasing", name))
		}
	}
	h := &hist{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
	r.add(entry{name: name, kind: KindHistogram, h: h})
	return Histogram{h: h}
}

// Metric is a read-only view of one registered metric, addressed by its
// registration index. Registration is append-only, so a Metric stays
// valid (and cheap: two words, no allocation) however many metrics are
// registered after it — the iteration primitive behind the zero-alloc
// sampling path in internal/obs.
type Metric struct {
	r *Registry
	i int
}

// Metric returns the i-th registered metric, in registration order
// (deterministic: registration happens at world construction). Iterate
// with Len.
func (r *Registry) Metric(i int) Metric { return Metric{r: r, i: i} }

// Name returns the metric's registered name.
func (m Metric) Name() string { return m.r.entries[m.i].name }

// Kind returns the metric's kind.
func (m Metric) Kind() Kind { return m.r.entries[m.i].kind }

// Value returns the current counter count or gauge level (GaugeFunc
// entries are evaluated). Zero for histograms.
func (m Metric) Value() int64 {
	e := &m.r.entries[m.i]
	switch {
	case e.c != nil:
		return int64(*e.c)
	case e.gf != nil:
		return e.gf()
	case e.g != nil:
		return *e.g
	}
	return 0
}

// Histogram returns a live handle to the metric's histogram storage (the
// zero no-op handle for counters and gauges).
func (m Metric) Histogram() Histogram {
	return Histogram{h: m.r.entries[m.i].h}
}

// Scope returns a sub-registry view that prefixes every name with
// "prefix.". Scopes are cheap values; the zero Scope (or any scope of a
// nil registry) hands out no-op handles.
func (r *Registry) Scope(prefix string) Scope {
	return Scope{r: r, prefix: prefix}
}

// Instance claims base as a component instance's scope prefix. The first
// claimant gets base itself; later claimants get "base#2", "base#3", ...
// in claim order, which is construction order and therefore deterministic.
// Use it for per-node components whose node names may repeat (stations
// cycled through the same device profiles).
func (r *Registry) Instance(base string) Scope {
	if r == nil {
		return Scope{}
	}
	checkName(base)
	r.claimed[base]++
	if n := r.claimed[base]; n > 1 {
		base += "#" + strconv.Itoa(n)
	}
	return Scope{r: r, prefix: base}
}

// Scope is a name-prefixing view of a registry.
type Scope struct {
	r      *Registry
	prefix string
}

// Enabled reports whether the scope is backed by a live registry.
func (s Scope) Enabled() bool { return s.r != nil }

// Prefix returns the scope's name prefix ("" for the zero scope).
func (s Scope) Prefix() string { return s.prefix }

func (s Scope) full(name string) string {
	if s.prefix == "" {
		return name
	}
	return s.prefix + "." + name
}

// Child returns a scope one level deeper.
func (s Scope) Child(name string) Scope {
	if s.r == nil {
		return Scope{}
	}
	return Scope{r: s.r, prefix: s.full(name)}
}

// Counter registers a registry-owned counter under the scope.
func (s Scope) Counter(name string) Counter {
	if s.r == nil {
		return Counter{}
	}
	return s.r.Counter(s.full(name))
}

// AliasCounter registers a component-owned counter field under the scope.
// Without a registry the handle still wraps p, so handle writers and
// direct field access stay coherent.
func (s Scope) AliasCounter(name string, p *uint64) Counter {
	if s.r == nil {
		return Counter{v: p}
	}
	return s.r.AliasCounter(s.full(name), p)
}

// Gauge registers a registry-owned gauge under the scope.
func (s Scope) Gauge(name string) Gauge {
	if s.r == nil {
		return Gauge{}
	}
	return s.r.Gauge(s.full(name))
}

// GaugeFunc registers a computed gauge under the scope.
func (s Scope) GaugeFunc(name string, f func() int64) {
	if s.r == nil {
		return
	}
	s.r.GaugeFunc(s.full(name), f)
}

// Histogram registers a default-bucket latency histogram under the scope.
func (s Scope) Histogram(name string) Histogram {
	if s.r == nil {
		return Histogram{}
	}
	return s.r.Histogram(s.full(name))
}

// HistogramBuckets registers an explicit-bucket histogram under the scope.
func (s Scope) HistogramBuckets(name string, bounds []time.Duration) Histogram {
	if s.r == nil {
		return Histogram{}
	}
	return s.r.HistogramBuckets(s.full(name), bounds)
}

// Sanitize lowercases s and replaces every byte outside [a-z0-9._-] with
// '-', making arbitrary node or device names ("802.11b (Wi-Fi)") safe as
// metric name segments. Runs of '-' collapse to one and leading/trailing
// '-' are trimmed, so punctuation-heavy names stay readable.
func Sanitize(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	lastDash := true // suppress a leading dash
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'A' && c <= 'Z':
			c += 'a' - 'A'
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '.', c == '_':
		default:
			c = '-'
		}
		if c == '-' {
			if lastDash {
				continue
			}
			lastDash = true
		} else {
			lastDash = false
		}
		b.WriteByte(c)
	}
	return strings.TrimSuffix(b.String(), "-")
}
