package simnet

import (
	"fmt"
	"math"
	"time"

	"mcommerce/internal/metrics"
	"mcommerce/internal/trace"
)

// CrossLink is a point-to-point link whose endpoints live in different
// shards of a Sharded world. It models the same physics as Link
// (serialization, propagation, jitter, drop-tail queueing, random and
// bursty loss), but instead of scheduling the delivery directly it pushes
// a record onto the shard pair's exchange ring; the destination shard
// schedules it on its own scheduler when it drains its rings at the next
// window boundary (Sharded.drainRings).
//
// Ownership is split by writer so no field ever has two: the transmit
// side (queue state, loss chain, every loss/drop counter) belongs to the
// source shard, Delivered to the destination shard, and the ring's
// producer and consumer ends are ordered by the executor's scoreboard. Packets are copied by value across the boundary; their Body
// pointer is shared, which is safe under the repo-wide rule that bodies
// are immutable once sent. Trace contexts do not cross shards — the
// source span is annotated "xshard" and the copy travels untraced.
type CrossLink struct {
	cfg LinkConfig
	a,
	b *Iface
	w *Sharded

	// txShard/rxShard are the source and destination shard per direction
	// (index 0: a->b, index 1: b->a).
	txShard [2]int32
	rxShard [2]int32

	spanName string
	down     bool
	burstBad [2]bool

	busyUntil [2]time.Duration
	queued    [2]int

	// Stats per direction, mirroring Link. The transmit-side counters are
	// registered in the source shard's registry, Delivered in the
	// destination's, under simnet.xlink.<name>.
	Delivered   [2]uint64
	Lost        [2]uint64
	LostRandom  [2]uint64
	LostBurst   [2]uint64
	Dropped     [2]uint64
	DroppedDown [2]uint64
}

var _ Medium = (*CrossLink)(nil)

// Cross creates a link between nodes in two different shards of w,
// attaching a new interface on each. Its delay is a hard floor on how
// soon the far shard can be affected, so it must be at least the world's
// lookahead; Cross enforces Delay > 0 and same-world, different-shard
// endpoints (use Connect within a shard).
func (w *Sharded) Cross(x, y *Node, cfg LinkConfig) (*CrossLink, error) {
	sx, okx := w.shardOf[x.net]
	sy, oky := w.shardOf[y.net]
	if !okx || !oky {
		return nil, fmt.Errorf("simnet: Cross endpoint not in this sharded world")
	}
	if sx == sy {
		return nil, fmt.Errorf("simnet: Cross endpoints %s and %s share shard %d (use Connect)", x.Name, y.Name, sx)
	}
	if cfg.Delay <= 0 {
		return nil, fmt.Errorf("simnet: cross link %s--%s needs Delay > 0 (it bounds the lookahead)", x.Name, y.Name)
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = DefaultQueueLen
	}
	l := &CrossLink{cfg: cfg, w: w}
	l.a = x.AddIface(fmt.Sprintf("xlink-%d-%d", x.ID, y.ID), l)
	l.b = y.AddIface(fmt.Sprintf("xlink-%d-%d", y.ID, x.ID), l)
	l.txShard = [2]int32{sx, sy}
	l.rxShard = [2]int32{sy, sx}
	w.ensureRing(int(sx), int(sy))
	w.ensureRing(int(sy), int(sx))
	if w.minCross == 0 || cfg.Delay < w.minCross {
		w.minCross = cfg.Delay
	}

	label := cfg.Name
	if label == "" {
		label = fmt.Sprintf("n%d-n%d", x.ID, y.ID)
	}
	l.spanName = "simnet.xlink." + metrics.Sanitize(label)
	scA := x.net.Metrics.Instance(l.spanName)
	scB := y.net.Metrics.Instance(l.spanName)
	tx := [2]metrics.Scope{scA, scB} // transmit side per direction
	rx := [2]metrics.Scope{scB, scA} // delivery side per direction
	for dir, suffix := range [2]string{"ab", "ba"} {
		rx[dir].AliasCounter("delivered."+suffix, &l.Delivered[dir])
		tx[dir].AliasCounter("lost."+suffix, &l.Lost[dir])
		tx[dir].AliasCounter("lost_random."+suffix, &l.LostRandom[dir])
		tx[dir].AliasCounter("lost_burst."+suffix, &l.LostBurst[dir])
		tx[dir].AliasCounter("dropped_queue."+suffix, &l.Dropped[dir])
		tx[dir].AliasCounter("dropped_down."+suffix, &l.DroppedDown[dir])
	}
	return l, nil
}

// Config returns the link's configuration.
func (l *CrossLink) Config() LinkConfig { return l.cfg }

// SetDown sets the administrative state; a downed cross link discards
// both directions at the transmit side (counted in DroppedDown).
func (l *CrossLink) SetDown(down bool) {
	if l == nil {
		return
	}
	l.down = down
}

// IsDown reports the administrative state.
func (l *CrossLink) IsDown() bool { return l != nil && l.down }

// IfaceA returns the interface on the first node passed to Cross.
func (l *CrossLink) IfaceA() *Iface { return l.a }

// IfaceB returns the interface on the second node passed to Cross.
func (l *CrossLink) IfaceB() *Iface { return l.b }

// xrec is one packet in flight between shards: everything the destination
// shard needs to complete the delivery, ordered by (at, src, seq) so the
// scheduled delivery order is independent of ring layout and worker count.
type xrec struct {
	at   time.Duration
	seq  uint64
	src  int32
	dir  uint8
	link *CrossLink
	dst  *Iface
	p    Packet
}

// xring is the per-(source, destination) shard-pair exchange buffer. It
// needs no atomics: the producer appends while running a window, the
// consumer drains it at the destination's next boundary (drainRings), and
// the scoreboard orders the two — a drain waits until the producer has
// finished the window, and the producer's next run waits until the drain
// is done — with its mutex carrying the happens-before edge. The backing array is reused, so
// the steady state allocates nothing.
type xring struct {
	recs []xrec
}

// xDelivery is the pooled record completing one cross-shard delivery on
// the destination scheduler, mirroring linkDelivery.
type xDelivery struct {
	link *CrossLink
	dst  *Iface
	p    *Packet
	dir  uint8
}

// run completes a cross delivery on the destination shard's goroutine:
// the Delivered counter lives in the destination registry, so this is its
// only writer.
func (d *xDelivery) run() {
	l, dst, p, dir := d.link, d.dst, d.p, d.dir
	k := int(l.rxShard[dir])
	w := l.w
	l.Delivered[dir]++
	net := dst.Node.net
	dst.Node.Deliver(p, dst)
	net.freePacket(p)
	*d = xDelivery{}
	w.xdFree[k] = append(w.xdFree[k], d)
}

var (
	xlinkDequeue = [2]func(any){
		func(a any) { a.(*CrossLink).dequeue(0) },
		func(a any) { a.(*CrossLink).dequeue(1) },
	}
	xlinkDeliver = func(a any) { a.(*xDelivery).run() }
)

// Transmit implements Medium on the source shard's goroutine. The local
// half (queueing, serialization, loss, dequeue timer) is identical to
// Link.Transmit; the remote half becomes a ring record with the arrival
// time precomputed. cfg.Delay >= lookahead guarantees the arrival falls
// at or after the next window boundary, where the destination drains it.
func (l *CrossLink) Transmit(from *Iface, p *Packet) {
	dir := 0
	dst := l.b
	if from == l.b {
		dir = 1
		dst = l.a
	} else if from != l.a {
		return
	}
	net := from.Node.net

	if l.down {
		l.DroppedDown[dir]++
		net.Tracer.Annotate(p.Trace, "link-down")
		return
	}

	s := net.Sched
	now := s.Now()
	if l.busyUntil[dir] < now {
		l.busyUntil[dir] = now
		l.queued[dir] = 0
	}
	if l.queued[dir] >= l.cfg.QueueLen {
		l.Dropped[dir]++
		net.Tracer.Annotate(p.Trace, "queue-overflow")
		return
	}

	txDone := l.busyUntil[dir] + l.cfg.Rate.TxTime(p.Bytes)
	l.busyUntil[dir] = txDone
	l.queued[dir]++
	arrive := txDone + l.cfg.Delay
	if l.cfg.Jitter > 0 {
		arrive += time.Duration(s.Rand().Int63n(int64(l.cfg.Jitter)))
	}

	if reason := l.lost(s, dir, p.Bytes); reason != "" {
		l.Lost[dir]++
		net.Tracer.Annotate(p.Trace, reason)
		s.AtCall(txDone, xlinkDequeue[dir], l)
		return
	}
	s.AtCall(txDone, xlinkDequeue[dir], l)

	// Traces stay shard-local: mark the crossing on the source span and
	// send the copy untraced.
	net.Tracer.Annotate(p.Trace, "xshard")
	src := l.txShard[dir]
	l.w.xseq[src]++
	r := l.w.rings[src][l.rxShard[dir]]
	r.recs = append(r.recs, xrec{
		at: arrive, seq: l.w.xseq[src], src: src, dir: uint8(dir), link: l, dst: dst, p: *p,
	})
	rec := &r.recs[len(r.recs)-1]
	rec.p.pooled, rec.p.inPool = false, false
	rec.p.Trace = trace.Context{}
}

// lost mirrors Link.lost for the cross link's loss models.
func (l *CrossLink) lost(s *Scheduler, dir, bytes int) string {
	if l.cfg.Loss > 0 && s.Rand().Float64() < l.cfg.Loss {
		l.LostRandom[dir]++
		return "loss"
	}
	if ber := l.cfg.BitErrorRate; ber > 0 {
		pLoss := 1 - math.Pow(1-ber, float64(bytes*8))
		if s.Rand().Float64() < pLoss {
			l.LostRandom[dir]++
			return "loss"
		}
	}
	if g := l.cfg.Burst; g.Enabled() {
		if l.burstBad[dir] {
			if s.Rand().Float64() < g.PBadToGood {
				l.burstBad[dir] = false
			}
		} else if s.Rand().Float64() < g.PGoodToBad {
			l.burstBad[dir] = true
		}
		pLoss := g.LossGood
		if l.burstBad[dir] {
			pLoss = g.LossBad
		}
		if pLoss > 0 && s.Rand().Float64() < pLoss {
			l.LostBurst[dir]++
			return "loss-burst"
		}
	}
	return ""
}

func (l *CrossLink) dequeue(dir int) {
	if l.queued[dir] > 0 {
		l.queued[dir]--
	}
}
