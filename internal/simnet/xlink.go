package simnet

import (
	"fmt"
	"time"

	"mcommerce/internal/metrics"
	"mcommerce/internal/trace"
)

// crossing places a cross-shard Link in its Sharded world. Such a link
// models the same physics as any Link (Transmit runs one transmitter for
// both), but instead of scheduling a surviving packet's delivery directly
// it pushes a record onto the shard pair's exchange ring; the destination
// shard schedules it on its own scheduler when it drains its rings at the
// next window boundary (Sharded.drainRings).
//
// Ownership is split by writer so no field ever has two: the transmit
// side (queue state, loss chain, every loss/drop counter) belongs to the
// source shard, Delivered to the destination shard, and the ring's
// producer and consumer ends are ordered by the executor's scoreboard.
// Packets are copied by value across the boundary; their Body pointer is
// shared, which is safe under the repo-wide rule that bodies are
// immutable once sent. Trace contexts do not cross shards — the source
// span is annotated "xshard" and the copy travels untraced.
type crossing struct {
	w *Sharded
	// tx/rx are the source and destination shard per direction (index 0:
	// a->b, index 1: b->a).
	tx, rx [2]int32
}

// Cross creates a link between nodes in two different shards of w,
// attaching a new interface on each. Its delay is a hard floor on how
// soon the far shard can be affected, so it must be at least the world's
// lookahead; Cross enforces Delay > 0 and same-world, different-shard
// endpoints (use Connect within a shard). The transmit-side counters are
// registered in the source shard's registry, Delivered in the
// destination's, under simnet.xlink.<cfg.Name>.
func (w *Sharded) Cross(x, y *Node, cfg LinkConfig) (*Link, error) {
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
	l := newLink(x, y, cfg, "xlink")
	l.x = &crossing{w: w, tx: [2]int32{sx, sy}, rx: [2]int32{sy, sx}}
	w.ensureRing(int(sx), int(sy))
	w.ensureRing(int(sy), int(sx))
	if w.minCross == 0 || cfg.Delay < w.minCross {
		w.minCross = cfg.Delay
	}
	scA := x.net.Metrics.Instance(l.spanName)
	scB := y.net.Metrics.Instance(l.spanName)
	l.register([2]metrics.Scope{scA, scB}, [2]metrics.Scope{scB, scA})
	return l, nil
}

// xrec is one packet in flight between shards: everything the destination
// shard needs to complete the delivery, ordered by (at, src, seq) so the
// scheduled delivery order is independent of ring layout and worker count.
type xrec struct {
	at  time.Duration
	seq uint64
	src int32
	// count is the link's Delivered counter for this direction, owned by
	// the destination shard.
	count *uint64
	dst   *Iface
	p     Packet
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

// crossShard is the remote half of Transmit on a cross link, run on the
// source shard's goroutine: the surviving packet becomes a ring record
// with its arrival time precomputed. cfg.Delay >= lookahead guarantees
// the arrival falls at or after the next window boundary, where the
// destination drains it.
func (l *Link) crossShard(net *Network, dir int, arrive time.Duration, dst *Iface, p *Packet) {
	// Traces stay shard-local: mark the crossing on the source span and
	// send the copy untraced.
	net.Tracer.Annotate(p.Trace, "xshard")
	w, src := l.x.w, l.x.tx[dir]
	w.xseq[src]++
	r := w.rings[src][l.x.rx[dir]]
	r.recs = append(r.recs, xrec{
		at: arrive, seq: w.xseq[src], src: src, count: &l.Delivered[dir], dst: dst, p: *p,
	})
	rec := &r.recs[len(r.recs)-1]
	rec.p.pooled, rec.p.inPool = false, false
	rec.p.Trace = trace.Context{}
}
