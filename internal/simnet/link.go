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

// GilbertElliott parameterizes the classic two-state bursty-loss model: a
// per-direction Markov chain alternates between a Good and a Bad state with
// the given per-packet transition probabilities, and each state has its own
// loss probability. Unlike independent Loss, losses cluster into bursts
// whose mean length is 1/PBadToGood packets — the wireless-error pattern
// the paper's Section 5.2 worries about. The zero value disables the model.
type GilbertElliott struct {
	// PGoodToBad is the per-packet probability of entering the Bad state.
	PGoodToBad float64
	// PBadToGood is the per-packet probability of returning to Good.
	PBadToGood float64
	// LossGood is the per-packet loss probability in the Good state
	// (usually 0 or very small).
	LossGood float64
	// LossBad is the per-packet loss probability in the Bad state
	// (usually near 1).
	LossBad float64
}

// Enabled reports whether the model is active (any transition probability
// set).
func (g GilbertElliott) Enabled() bool { return g.PGoodToBad > 0 || g.PBadToGood > 0 }

// StationaryLoss returns the analytic long-run loss rate: the chain's
// stationary distribution weighted by the per-state loss probabilities.
func (g GilbertElliott) StationaryLoss() float64 {
	den := g.PGoodToBad + g.PBadToGood
	if den == 0 {
		return g.LossGood
	}
	pBad := g.PGoodToBad / den
	return (1-pBad)*g.LossGood + pBad*g.LossBad
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
	// Burst enables Gilbert–Elliott bursty loss on top of (or instead of)
	// the independent Loss model. Each direction runs its own chain.
	Burst GilbertElliott
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
// arrival.
type Link struct {
	cfg  LinkConfig
	a, b *Iface
	net  *Network

	// spanName is the precomputed hop-span name ("simnet.link.<label>"),
	// shared by both directions so span recording allocates nothing.
	spanName string

	// down is the administrative state: a downed link silently discards
	// both directions (fault injection / disconnection modelling).
	down bool
	// base holds the undegraded config while a brownout is active.
	base *LinkConfig
	// burstBad is the per-direction Gilbert–Elliott chain state.
	burstBad [2]bool

	// busyUntil is when each direction's transmitter frees up.
	// Index 0: a->b, index 1: b->a.
	busyUntil [2]time.Duration
	queued    [2]int

	// Stats per direction. Lost is the total loss-model verdict count and
	// always equals LostRandom + LostBurst; Dropped counts only queue
	// overflow, and DroppedDown counts admin-down discards, so the three
	// failure modes are distinguishable (and each is traced with its own
	// reason: "loss", "loss-burst", "queue-overflow", "link-down").
	Delivered   [2]uint64
	Lost        [2]uint64
	LostRandom  [2]uint64 // independent Loss / BitErrorRate verdicts
	LostBurst   [2]uint64 // Gilbert–Elliott bad-state verdicts
	Dropped     [2]uint64 // queue overflow
	DroppedDown [2]uint64 // discarded while administratively down
}

var _ Medium = (*Link)(nil)

// Connect creates a link with the given config between two nodes, attaching
// a new interface on each. The returned link is already live. Its six
// per-direction counters are aliased into the network's metrics registry
// under simnet.link.<cfg.Name> (the "ab" direction is x->y).
func Connect(x, y *Node, cfg LinkConfig) *Link {
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = DefaultQueueLen
	}
	l := &Link{cfg: cfg, net: x.net}
	l.a = x.AddIface(fmt.Sprintf("link-%d-%d", x.ID, y.ID), l)
	l.b = y.AddIface(fmt.Sprintf("link-%d-%d", y.ID, x.ID), l)

	label := cfg.Name
	if label == "" {
		label = fmt.Sprintf("n%d-n%d", x.ID, y.ID)
	}
	l.spanName = "simnet.link." + metrics.Sanitize(label)
	sc := l.net.Metrics.Instance(l.spanName)
	for dir, suffix := range [2]string{"ab", "ba"} {
		sc.AliasCounter("delivered."+suffix, &l.Delivered[dir])
		sc.AliasCounter("lost."+suffix, &l.Lost[dir])
		sc.AliasCounter("lost_random."+suffix, &l.LostRandom[dir])
		sc.AliasCounter("lost_burst."+suffix, &l.LostBurst[dir])
		sc.AliasCounter("dropped_queue."+suffix, &l.Dropped[dir])
		sc.AliasCounter("dropped_down."+suffix, &l.DroppedDown[dir])
	}
	return l
}

// Config returns the link's effective configuration (including any active
// brownout degradation).
func (l *Link) Config() LinkConfig { return l.cfg }

// SetDown sets the link's administrative state. While down, both directions
// silently discard traffic (counted in DroppedDown and traced as
// "link-down"). Safe on the zero Link and allocation-free: the hot-path
// check is a single bool load.
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
// degraded is left untouched.
func (l *Link) Restore() {
	if l.base != nil {
		l.cfg = *l.base
		l.base = nil
	}
}

// IfaceA returns the interface on the first node passed to Connect.
func (l *Link) IfaceA() *Iface { return l.a }

// IfaceB returns the interface on the second node passed to Connect.
func (l *Link) IfaceB() *Iface { return l.b }

// Peer returns the interface at the other end of the link from i, or nil if
// i is not attached to the link.
func (l *Link) Peer(i *Iface) *Iface {
	switch i {
	case l.a:
		return l.b
	case l.b:
		return l.a
	default:
		return nil
	}
}

// linkDelivery is a pooled record carrying one in-flight packet from
// serialization end to arrival; together with the package-level callback
// funcs below it lets Transmit schedule without allocating closures.
type linkDelivery struct {
	link *Link
	dst  *Iface
	p    *Packet
	dir  uint8
	// hop is the in-flight hop span, finished at arrival.
	hop trace.Context
}

// run completes a delivery: count it, hand the packet to the receiving
// node, then recycle packet and record.
func (d *linkDelivery) run() {
	l, dst, p, dir, hop := d.link, d.dst, d.p, d.dir, d.hop
	l.net.freeDelivery(d)
	l.Delivered[dir]++
	l.net.Tracer.Finish(hop)
	dst.Node.Deliver(p, dst)
	l.net.freePacket(p)
}

var (
	linkDequeue = [2]func(any){
		func(a any) { a.(*Link).dequeue(0) },
		func(a any) { a.(*Link).dequeue(1) },
	}
	linkDeliver = func(a any) { a.(*linkDelivery).run() }
)

// Transmit implements Medium: serialize then propagate, with drop-tail
// queueing and random loss. The steady-state path performs no allocations:
// the forwarded copy and the delivery record come from the network's free
// lists, and the scheduler callbacks are package-level func values.
func (l *Link) Transmit(from *Iface, p *Packet) {
	dir := 0
	dst := l.b
	if from == l.b {
		dir = 1
		dst = l.a
	} else if from != l.a {
		return
	}

	if l.down {
		l.DroppedDown[dir]++
		l.net.Tracer.Annotate(p.Trace, "link-down")
		return
	}

	s := l.net.Sched
	now := s.Now()
	if l.busyUntil[dir] < now {
		l.busyUntil[dir] = now
		l.queued[dir] = 0
	}
	if l.queued[dir] >= l.cfg.QueueLen {
		l.Dropped[dir]++
		l.net.Tracer.Annotate(p.Trace, "queue-overflow")
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
		l.net.Tracer.Annotate(p.Trace, reason)
		// The transmitter is still occupied for the serialization time;
		// decrement the queue when the frame would have finished sending.
		s.AtCall(txDone, linkDequeue[dir], l)
		return
	}

	s.AtCall(txDone, linkDequeue[dir], l)
	d := l.net.allocDelivery()
	d.link, d.dst, d.p, d.dir = l, dst, l.net.clonePooled(p), uint8(dir)
	// The hop span covers queueing + serialization + propagation on this
	// wire; the name is precomputed at Connect, so this allocates nothing.
	d.hop = l.net.Tracer.StartSpan(p.Trace, l.spanName, trace.LayerWired)
	s.AtCall(arrive, linkDeliver, d)
}

// lost draws the per-packet loss verdict and returns the trace reason
// ("" for survival): the flat Loss probability plus the size-dependent
// bit-error loss, then the Gilbert–Elliott chain. The reasons are constant
// strings, so the verdict allocates nothing.
func (l *Link) lost(s *Scheduler, dir, bytes int) string {
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
		// Evolve the chain once per packet, then apply the state's loss.
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

func (l *Link) dequeue(dir int) {
	if l.queued[dir] > 0 {
		l.queued[dir]--
	}
}
