package simnet

import (
	"fmt"
	"math"
	"time"

	"mcommerce/internal/metrics"
	"mcommerce/internal/trace"
)

// Rate is a link speed in bits per second.
type Rate float64

// Common rates used throughout the reproduction. WLAN and cellular rates
// come from Tables 4 and 5 of the paper.
const (
	Kbps Rate = 1e3
	Mbps Rate = 1e6
	Gbps Rate = 1e9
)

func (r Rate) String() string {
	switch {
	case r >= Gbps:
		return fmt.Sprintf("%.3gGbps", float64(r)/1e9)
	case r >= Mbps:
		return fmt.Sprintf("%.3gMbps", float64(r)/1e6)
	case r >= Kbps:
		return fmt.Sprintf("%.3gkbps", float64(r)/1e3)
	default:
		return fmt.Sprintf("%.3gbps", float64(r))
	}
}

// TxTime returns the serialization delay for a payload of the given size.
func (r Rate) TxTime(bytes int) time.Duration {
	if r <= 0 {
		return 0
	}
	sec := float64(bytes*8) / float64(r)
	return time.Duration(sec * float64(time.Second))
}

// LinkConfig parameterizes a point-to-point link.
type LinkConfig struct {
	// Name labels the link in the metrics registry (simnet.link.<name>.*).
	// Empty means an automatic "n<idA>-n<idB>" label. Builders that know a
	// link's role (core's "lan"/"wan" segments) set it for readable dumps.
	Name string
	// Rate is the transmission speed in each direction.
	Rate Rate
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// Jitter adds a uniform random extra delay in [0, Jitter) per packet.
	// Jittered packets can arrive out of order, as on real WANs.
	Jitter time.Duration
	// Loss is the independent per-packet loss probability in [0,1).
	Loss float64
	// BitErrorRate adds size-dependent loss: a packet of n bytes is lost
	// with probability 1-(1-BER)^(8n), on top of Loss. Use it when frame
	// size should matter (radio-like links); larger frames die more often.
	BitErrorRate float64
	// QueueLen is the per-direction drop-tail queue capacity in packets.
	// Zero means DefaultQueueLen.
	QueueLen int
}

// DefaultQueueLen is the drop-tail queue capacity used when LinkConfig
// leaves QueueLen zero.
const DefaultQueueLen = 64

// LAN and WAN are convenience configurations for the paper's wired
// networks component: a fast local segment and a slower long-haul path.
var (
	LAN = LinkConfig{Rate: 100 * Mbps, Delay: 200 * time.Microsecond}
	WAN = LinkConfig{Rate: 10 * Mbps, Delay: 20 * time.Millisecond, Loss: 0.0001}
)

// Link is a full-duplex point-to-point link between two interfaces. Each
// direction has an independent transmitter with a drop-tail queue modelled
// implicitly by bounding the number of packets serialized ahead of a new
// arrival. A link made by Connect joins two nodes of one Network; one made
// by Sharded.Cross joins two shards and hands each surviving packet to the
// destination shard through the pair's exchange ring (see crossing).
type Link struct {
	cfg  LinkConfig
	a, b *Iface

	// x places a cross-shard link in its world; nil for a link inside
	// one Network.
	x *crossing

	// spanName is the precomputed hop-span name ("simnet.link.<label>" or
	// "simnet.xlink.<label>"), shared by both directions so span recording
	// allocates nothing.
	spanName string

	// down is the administrative state: a downed link silently discards
	// both directions (fault injection / disconnection modelling).
	down bool
	// base holds the undegraded config while a brownout is active.
	base *LinkConfig

	// busyUntil is when each direction's transmitter frees up.
	// Index 0: a->b, index 1: b->a.
	busyUntil [2]time.Duration
	queued    [2]int

	// Stats per direction. Lost counts loss-model verdicts (Loss and
	// BitErrorRate), Dropped counts only queue overflow, and DroppedDown
	// counts admin-down discards, so the three failure modes are
	// distinguishable (and each is traced with its own reason: "loss",
	// "queue-overflow", "link-down").
	Delivered   [2]uint64
	Lost        [2]uint64
	Dropped     [2]uint64 // queue overflow
	DroppedDown [2]uint64 // discarded while administratively down
}

var _ Medium = (*Link)(nil)

// Connect creates a link with the given config between two nodes, attaching
// a new interface on each. The returned link is already live. Its four
// per-direction counters are aliased into the network's metrics registry
// under simnet.link.<cfg.Name> (the "ab" direction is x->y).
func Connect(x, y *Node, cfg LinkConfig) *Link {
	l := newLink(x, y, cfg, "link")
	sc := x.net.Metrics.Instance(l.spanName)
	l.register([2]metrics.Scope{sc, sc}, [2]metrics.Scope{sc, sc})
	return l
}

// newLink builds the link shared by Connect and Cross: it applies the
// QueueLen default, attaches the interfaces "<kind>-<x>-<y>" and
// "<kind>-<y>-<x>", and names the link "simnet.<kind>.<label>".
func newLink(x, y *Node, cfg LinkConfig, kind string) *Link {
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = DefaultQueueLen
	}
	l := &Link{cfg: cfg}
	l.a = x.AddIface(fmt.Sprintf("%s-%d-%d", kind, x.ID, y.ID), l)
	l.b = y.AddIface(fmt.Sprintf("%s-%d-%d", kind, y.ID, x.ID), l)
	label := cfg.Name
	if label == "" {
		label = fmt.Sprintf("n%d-n%d", x.ID, y.ID)
	}
	l.spanName = "simnet." + kind + "." + metrics.Sanitize(label)
	return l
}

// register aliases the four per-direction counters: Delivered into the
// receiving side's scope rx[dir], the loss and drop counters into the
// sending side's tx[dir].
func (l *Link) register(tx, rx [2]metrics.Scope) {
	for dir, suffix := range [2]string{"ab", "ba"} {
		rx[dir].AliasCounter("delivered."+suffix, &l.Delivered[dir])
		tx[dir].AliasCounter("lost."+suffix, &l.Lost[dir])
		tx[dir].AliasCounter("dropped_queue."+suffix, &l.Dropped[dir])
		tx[dir].AliasCounter("dropped_down."+suffix, &l.DroppedDown[dir])
	}
}

// SetDown sets the link's administrative state. While down, both directions
// silently discard traffic (counted in DroppedDown and traced as
// "link-down"). Safe on the zero Link and allocation-free: the hot-path
// check is a single bool load. It applies only to a link inside one
// Network: on a cross-shard link one shard would write the state while
// the other reads it.
func (l *Link) SetDown(down bool) {
	if l == nil {
		return
	}
	l.down = down
}

// IsDown reports the administrative state; the zero Link is up.
func (l *Link) IsDown() bool { return l != nil && l.down }

// Degrade applies a brownout: the effective rate is scaled by rateFactor
// (values in (0,1]; <=0 leaves the rate alone) and extraLoss is added to
// the independent loss probability. Repeated calls replace, rather than
// compound, any active brownout. Restore reverts to the configured values.
// Like SetDown, it applies only to a link inside one Network.
func (l *Link) Degrade(rateFactor, extraLoss float64) {
	if l.base == nil {
		base := l.cfg
		l.base = &base
	}
	l.cfg = *l.base
	if rateFactor > 0 {
		l.cfg.Rate = Rate(float64(l.base.Rate) * rateFactor)
	}
	if loss := l.base.Loss + extraLoss; loss > 0 {
		if loss > 0.9999 {
			loss = 0.9999
		}
		l.cfg.Loss = loss
	}
}

// Restore ends a brownout, reverting Degrade. A link that was never
// degraded is left untouched. It applies only to a link inside one
// Network.
func (l *Link) Restore() {
	if l.base != nil {
		l.cfg = *l.base
		l.base = nil
	}
}

// IfaceA returns the interface on the first node passed to Connect or
// Cross.
func (l *Link) IfaceA() *Iface { return l.a }

// IfaceB returns the interface on the second node passed to Connect or
// Cross.
func (l *Link) IfaceB() *Iface { return l.b }

var linkDequeue = [2]func(any){
	func(a any) { a.(*Link).dequeue(0) },
	func(a any) { a.(*Link).dequeue(1) },
}

// Transmit implements Medium on the sending node's network: serialize
// then propagate, with drop-tail queueing and random loss. The
// steady-state path performs no allocations: Carry takes the forwarded
// copy and its delivery record from the network's free lists, and the
// scheduler callbacks are package-level func values. A cross link runs
// the same transmitter and hands the survivor to the destination shard
// instead (crossShard).
func (l *Link) Transmit(from *Iface, p *Packet) {
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

	if l.lost(s, p.Bytes) {
		l.Lost[dir]++
		net.Tracer.Annotate(p.Trace, "loss")
		// The transmitter is still occupied for the serialization time;
		// decrement the queue when the frame would have finished sending.
		s.AtCall(txDone, linkDequeue[dir], l)
		return
	}

	s.AtCall(txDone, linkDequeue[dir], l)
	if l.x != nil {
		l.crossShard(net, dir, arrive, dst, p)
		return
	}
	// The hop span covers queueing + serialization + propagation on this
	// wire; the name is precomputed at Connect, so this allocates nothing.
	hop := net.Tracer.StartSpan(p.Trace, l.spanName, trace.LayerWired)
	net.Carry(arrive, dst, p, hop, &l.Delivered[dir])
}

// lost draws the per-packet loss verdict: the flat Loss probability,
// then the size-dependent bit-error loss.
func (l *Link) lost(s *Scheduler, bytes int) bool {
	if l.cfg.Loss > 0 && s.Rand().Float64() < l.cfg.Loss {
		return true
	}
	ber := l.cfg.BitErrorRate
	return ber > 0 && s.Rand().Float64() < 1-math.Pow(1-ber, float64(bytes*8))
}

func (l *Link) dequeue(dir int) {
	if l.queued[dir] > 0 {
		l.queued[dir]--
	}
}
