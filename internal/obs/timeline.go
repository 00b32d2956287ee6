package obs

import (
	"fmt"
	"sort"
	"time"

	"mcommerce/internal/faults"
	"mcommerce/internal/metrics"
	"mcommerce/internal/simnet"
)

// DefaultInterval is the sampling interval used when a Timeline is
// created with a non-positive one.
const DefaultInterval = 100 * time.Millisecond

// defaultMaxWindows bounds how many sample windows each series retains.
// At the default 100ms interval this is ~7 simulated minutes — longer
// than any experiment horizon in this repo — while still making the
// rings true rings: a runaway horizon overwrites oldest-first instead
// of growing without bound.
const defaultMaxWindows = 4096

// Timeline samples every attached world's metrics registry at a fixed
// interval of simulated time. Create with NewTimeline, attach worlds
// before running the simulation, then export (WriteJSON) or evaluate
// (Evaluate) after it finishes. A Timeline is not safe for concurrent
// use, but sampling runs inside each world's own scheduler — the same
// discipline every other component follows — so no locking is needed.
type Timeline struct {
	interval   time.Duration
	maxWindows int
	worlds     []*WorldSampler
	anns       []Annotation
}

// Annotation marks one out-of-band event (typically a fault-injector
// firing) on the timeline, for correlation with telemetry inflections.
type Annotation struct {
	At     time.Duration
	Kind   string
	Target string
	Phase  string
	Detail string
}

// NewTimeline creates a timeline sampling at the given interval of
// simulated time (DefaultInterval if d <= 0).
func NewTimeline(d time.Duration) *Timeline {
	if d <= 0 {
		d = DefaultInterval
	}
	return &Timeline{interval: d, maxWindows: defaultMaxWindows}
}

// Interval reports the sampling interval.
func (t *Timeline) Interval() time.Duration { return t.interval }

// Worlds returns the attached samplers in attach order.
func (t *Timeline) Worlds() []*WorldSampler { return t.worlds }

// IngestFaults converts the injector's structured event feed into
// annotations. Call after the run (the feed is complete then); calling
// for several injectors aggregates all of them.
func (t *Timeline) IngestFaults(in *faults.Injector) {
	if in == nil {
		return
	}
	for _, ev := range in.Events() {
		t.anns = append(t.anns, Annotation{
			At: ev.At, Kind: ev.Kind.String(), Target: ev.Target,
			Phase: ev.Phase.String(), Detail: ev.Detail,
		})
	}
}

// Annotations returns a copy of the annotation stream sorted by
// (At, Kind, Target, Phase) so exports are deterministic even when
// several injectors were ingested.
func (t *Timeline) Annotations() []Annotation {
	out := append([]Annotation(nil), t.anns...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Target != b.Target {
			return a.Target < b.Target
		}
		return a.Phase < b.Phase
	})
	return out
}

// Attach registers a sampler for one standalone world and arms its
// first tick at the next interval boundary on the world's scheduler.
// Series names are unprefixed. Standalone worlds auto-quiesce: a tick
// that finds no other pending event stops re-arming. Attach before the
// run starts.
func (t *Timeline) Attach(net *simnet.Network) *WorldSampler {
	return t.attach("", net, true)
}

// AttachSharded registers one sampler per shard of a sharded world.
// Prefixes mirror Sharded.Snapshot: a one-shard world samples
// unprefixed (identical to the serial path) and multi-shard worlds use
// "s<k>.". Multi-shard samplers never auto-quiesce — an empty shard
// queue does not mean the world is done, since cross-shard traffic may
// still be injected — so they tick until the horizon.
func (t *Timeline) AttachSharded(w *simnet.Sharded) []*WorldSampler {
	n := w.NumShards()
	out := make([]*WorldSampler, n)
	for k := 0; k < n; k++ {
		prefix := ""
		if n > 1 {
			prefix = fmt.Sprintf("s%d.", k)
		}
		out[k] = t.attach(prefix, w.Shard(k), n == 1)
	}
	return out
}

func (t *Timeline) attach(prefix string, net *simnet.Network, quiesce bool) *WorldSampler {
	ws := &WorldSampler{tl: t, net: net, prefix: prefix, quiesce: quiesce}
	t.worlds = append(t.worlds, ws)
	now := net.Sched.Now()
	first := now - now%t.interval + t.interval
	net.Sched.AtCall(first, samplerTick, ws)
	return ws
}

// samplerTick is the scheduler callback: take one sample, then re-arm
// unless this world quiesced. Package-level func + pointer arg keeps the
// re-arm allocation-free, and Rearm reclaims the firing slot in place so
// the sampler cycles one arena slot for the whole run.
func samplerTick(arg any) {
	ws := arg.(*WorldSampler)
	ws.sample()
	if ws.quiesce && ws.net.Sched.Pending() == 0 {
		// Step() retires an event before firing it, so Pending()==0
		// here means this tick was the only thing left: the workload
		// is over and re-arming would tick through a dead horizon.
		return
	}
	ws.net.Sched.Rearm(ws.tl.interval, samplerTick, ws)
}

// WorldSampler records one world's registry into per-series rings.
type WorldSampler struct {
	tl      *Timeline
	net     *simnet.Network
	prefix  string
	quiesce bool

	n      int             // samples committed (absolute index of the next one)
	times  []time.Duration // ring of sample instants
	series []*Series
}

// Prefix reports the sampler's series name prefix.
func (ws *WorldSampler) Prefix() string { return ws.prefix }

// Samples reports how many samples were taken (including any evicted
// from the rings).
func (ws *WorldSampler) Samples() int { return ws.n }

// Retained reports the absolute index range [first, ws.n) still held
// by the rings.
func (ws *WorldSampler) Retained() (first, n int) {
	first = ws.n - ws.tl.maxWindows
	if first < 0 {
		first = 0
	}
	return first, ws.n
}

// TimeAt reports the simulated instant of absolute sample a, which must
// be retained.
func (ws *WorldSampler) TimeAt(a int) time.Duration {
	return ws.times[a%ws.tl.maxWindows]
}

// Series returns the sampler's series in registration order.
func (ws *WorldSampler) Series() []*Series { return ws.series }

// sample reads every registry metric into the rings; allocation-free
// once the series set is stable and the rings have grown to length.
func (ws *WorldSampler) sample() {
	j := ws.n
	ws.n++
	mw := ws.tl.maxWindows
	ringPutDur(&ws.times, j, mw, ws.net.Sched.Now())

	// Adopt metrics registered since the last tick. Registration is
	// append-only, so series indices stay aligned with the registry.
	r := ws.net.Metrics
	for i := len(ws.series); i < r.Len(); i++ {
		m := r.Metric(i)
		s := &Series{name: ws.prefix + m.Name(), kind: m.Kind(), m: m, start: j, mw: mw}
		if s.kind == metrics.KindHistogram {
			h := m.Histogram()
			s.bounds = h.Bounds()
			s.stride = h.NumBuckets()
		}
		ws.series = append(ws.series, s)
	}

	for _, s := range ws.series {
		L := j - s.start
		if s.kind != metrics.KindHistogram {
			ringPutI64(&s.vals, L, mw, s.m.Value())
			continue
		}
		h := s.m.Histogram()
		ringPutU64(&s.counts, L, mw, h.Count())
		ringPutI64(&s.sums, L, mw, int64(h.Sum()))
		ringPutI64(&s.maxs, L, mw, int64(h.Max()))
		off := (L % mw) * s.stride
		if off >= len(s.buckets) {
			// Still growing: extend by one stride-row in place.
			if cap(s.buckets) < off+s.stride {
				grown := make([]uint64, len(s.buckets), growCap(cap(s.buckets), off+s.stride))
				copy(grown, s.buckets)
				s.buckets = grown
			}
			s.buckets = s.buckets[:off+s.stride]
		}
		h.CopyBuckets(s.buckets[off : off : off+s.stride])
	}
}

func growCap(have, need int) int {
	if have *= 2; have > need {
		return have
	}
	return need
}

// ringPut*: while the ring is still growing (local index below the ring
// length) new samples append; once full, they wrap.
func ringPutI64(p *[]int64, L, mw int, v int64) {
	if s := *p; L >= mw {
		s[L%mw] = v
	} else {
		*p = append(s, v)
	}
}

func ringPutU64(p *[]uint64, L, mw int, v uint64) {
	if s := *p; L >= mw {
		s[L%mw] = v
	} else {
		*p = append(s, v)
	}
}

func ringPutDur(p *[]time.Duration, L, mw int, v time.Duration) {
	if s := *p; L >= mw {
		s[L%mw] = v
	} else {
		*p = append(s, v)
	}
}

// Series is one metric's sampled history. Counter and gauge samples are
// cumulative readings; histogram samples carry the cumulative count,
// sum, running max and full bucket distribution, from which windowed
// rates and windowed quantiles fall out as deltas between samples.
type Series struct {
	name  string
	kind  metrics.Kind
	m     metrics.Metric
	start int // absolute index of the first sample
	mw    int // ring length (Timeline.maxWindows at adoption)

	vals []int64 // counters/gauges

	bounds  []time.Duration // histogram bucket upper bounds (shared, read-only)
	stride  int             // len(bounds)+1: bucket row width incl. overflow
	counts  []uint64
	sums    []int64
	maxs    []int64
	buckets []uint64 // row-major rows of stride, same ring geometry
}

// Name reports the prefixed series name.
func (s *Series) Name() string { return s.name }

func (s *Series) slot(a int) (int, bool) {
	L := a - s.start
	if L < 0 {
		return 0, false
	}
	return L % s.mw, true
}

// ValueAt reports the cumulative reading at absolute sample a (0 before
// the series existed). The caller keeps a within the retained range.
func (s *Series) ValueAt(a int) int64 {
	i, ok := s.slot(a)
	if !ok || i >= len(s.vals) {
		return 0
	}
	return s.vals[i]
}

// HistAt reports cumulative count, sum and running max at sample a.
func (s *Series) HistAt(a int) (count uint64, sum, max time.Duration) {
	i, ok := s.slot(a)
	if !ok || i >= len(s.counts) {
		return 0, 0, 0
	}
	return s.counts[i], time.Duration(s.sums[i]), time.Duration(s.maxs[i])
}

// BucketsAt returns the cumulative bucket row at sample a (nil before
// the series existed). The row is live ring storage — read-only.
func (s *Series) BucketsAt(a int) []uint64 {
	i, ok := s.slot(a)
	if !ok || i*s.stride >= len(s.buckets) {
		return nil
	}
	return s.buckets[i*s.stride : (i+1)*s.stride]
}

// WindowQuantile computes the q-quantile of the observations recorded
// in the half-open sample window (a0, a1] from bucket deltas. With no
// observations in the window it returns 0. a0 < Start() treats the
// series as all-zero at a0, so (Start()-1, a] yields the first window.
func (s *Series) WindowQuantile(a0, a1 int, q float64) time.Duration {
	if s.kind != metrics.KindHistogram {
		return 0
	}
	c1, _, max1 := s.HistAt(a1)
	c0, _, _ := s.HistAt(a0)
	if c1 <= c0 {
		return 0
	}
	b1 := s.BucketsAt(a1)
	b0 := s.BucketsAt(a0)
	deltas := make([]uint64, s.stride)
	copy(deltas, b1)
	for i := range b0 {
		deltas[i] -= b0[i]
	}
	return metrics.QuantileFromBuckets(s.bounds, deltas, c1-c0, max1, q)
}
