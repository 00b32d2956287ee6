package wireless

import (
	"fmt"
	"math"
	"time"

	"mcommerce/internal/metrics"
	"mcommerce/internal/simnet"
	"mcommerce/internal/trace"
)

// Position is a point in the 2D deployment plane, in meters.
type Position struct {
	X, Y float64
}

// Dist returns the Euclidean distance to q in meters.
func (p Position) Dist(q Position) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

func (p Position) String() string { return fmt.Sprintf("(%.1f,%.1f)", p.X, p.Y) }

// Per-frame radio timing every LAN uses.
const (
	// macOverhead is the fixed per-frame medium-access cost (DIFS/SIFS,
	// preamble, link ACK), charged in addition to serialization time.
	macOverhead = 100 * time.Microsecond
	// propagation is the one-way radio propagation delay (effectively
	// negligible at WLAN ranges, but kept non-zero for causality).
	propagation = time.Microsecond
)

// Config tunes the radio model of a LAN.
type Config struct {
	// BitErrorRate is the per-bit error probability at close range.
	// Wireless channels are error-prone (paper §5.2); the default models
	// a moderately noisy channel. Errors grow with distance.
	BitErrorRate float64
	// QueueLen is the per-channel drop-tail queue capacity in frames.
	QueueLen int
	// AdHoc permits direct station-to-station delivery when a station has
	// no AP (paper §6.1).
	AdHoc bool
}

// DefaultConfig returns the config used by the experiments unless a sweep
// overrides a field.
func DefaultConfig() Config {
	return Config{
		BitErrorRate: 1e-6,
		QueueLen:     simnet.DefaultQueueLen,
	}
}

// channel models one shared half-duplex radio channel (one per AP, plus one
// for the ad hoc cluster).
type channel struct {
	busyUntil time.Duration
	queued    int
}

// LAN is a wireless local area network in one Standard: a set of access
// points and mobile stations sharing per-AP radio channels. LAN implements
// simnet.Medium; every radio interface it creates transmits through it.
type LAN struct {
	std Standard
	cfg Config
	net *simnet.Network

	aps      []*AP
	stations []*Station
	byIface  map[*simnet.Iface]any // *AP or *Station
	// byNode indexes stations by node, keeping the first per node, for
	// the per-frame destination lookup.
	byNode map[simnet.NodeID]*Station

	// spanName is the precomputed airtime-span name
	// ("wireless.lan.<standard>"), so span recording allocates nothing.
	spanName string

	adhoc channel

	// Stats
	Delivered  uint64
	LostErrors uint64 // bit-error losses
	LostRange  uint64 // out of range / no association
	DroppedQ   uint64 // channel queue overflow
}

var _ simnet.Medium = (*LAN)(nil)

// NewLAN creates an empty WLAN of the given standard. Its medium counters
// register under wireless.lan.<standard>.
func NewLAN(net *simnet.Network, std Standard, cfg Config) *LAN {
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = simnet.DefaultQueueLen
	}
	l := &LAN{std: std, cfg: cfg, net: net, byIface: make(map[*simnet.Iface]any), byNode: make(map[simnet.NodeID]*Station)}
	l.spanName = "wireless.lan." + metrics.Sanitize(std.Name)
	sc := net.Metrics.Instance(l.spanName)
	sc.AliasCounter("delivered", &l.Delivered)
	sc.AliasCounter("lost_errors", &l.LostErrors)
	sc.AliasCounter("lost_range", &l.LostRange)
	sc.AliasCounter("dropped_queue", &l.DroppedQ)
	return l
}

// Standard returns the LAN's WLAN standard.
func (l *LAN) Standard() Standard { return l.std }

// AP is an access point: a radio attached to an existing (typically wired
// and forwarding) node.
type AP struct {
	lan   *LAN
	node  *simnet.Node
	radio *simnet.Iface
	pos   Position
	ch    channel
}

// AddAP attaches an access-point radio to node at pos. The node is marked
// forwarding (the paper: an AP acts "as a router or switch").
func (l *LAN) AddAP(node *simnet.Node, pos Position) *AP {
	ap := &AP{lan: l, node: node, pos: pos}
	ap.radio = node.AddIface("radio-ap", l)
	node.Forwarding = true
	l.aps = append(l.aps, ap)
	l.byIface[ap.radio] = ap
	return ap
}

// Station is a mobile station's radio: position, association state and
// mobility.
type Station struct {
	lan   *LAN
	node  *simnet.Node
	radio *simnet.Iface
	pos   Position

	ap *AP // nil when unassociated
}

// Radio returns the station's radio interface.
func (s *Station) Radio() *simnet.Iface { return s.radio }

// Associated reports whether the station currently has an AP.
func (s *Station) Associated() bool { return s.ap != nil }

// AddStation attaches a station radio to node at pos, sets the node's
// default route out of the radio, and associates it with the best AP in
// range (if any).
func (l *LAN) AddStation(node *simnet.Node, pos Position) *Station {
	st := &Station{lan: l, node: node, pos: pos}
	st.radio = node.AddIface("radio", l)
	node.SetDefaultRoute(st.radio)
	l.stations = append(l.stations, st)
	l.byIface[st.radio] = st
	if _, ok := l.byNode[node.ID]; !ok {
		l.byNode[node.ID] = st
	}
	st.reassociate()
	return st
}

// bestAP returns the nearest AP within range of pos, or nil.
func (l *LAN) bestAP(pos Position) *AP {
	var best *AP
	bestD := math.Inf(1)
	for _, ap := range l.aps {
		d := ap.pos.Dist(pos)
		if d <= l.std.RangeMax && d < bestD {
			best, bestD = ap, d
		}
	}
	return best
}

// reassociate re-evaluates the station's AP choice. When the best AP
// changes, the old AP's route to the station is withdrawn and the new
// AP's is set at once.
func (s *Station) reassociate() {
	best := s.lan.bestAP(s.pos)
	if best == s.ap {
		return
	}
	if s.ap != nil {
		s.ap.node.ClearRoute(s.node.ID)
	}
	s.ap = best
	if best != nil {
		best.node.SetRoute(s.node.ID, best.radio)
	}
}

// MoveTo repositions the station instantly and re-evaluates association.
func (s *Station) MoveTo(pos Position) {
	s.pos = pos
	s.reassociate()
}

// Transmit implements simnet.Medium.
func (l *LAN) Transmit(from *simnet.Iface, p *simnet.Packet) {
	switch ep := l.byIface[from].(type) {
	case *Station:
		l.txFromStation(ep, p)
	case *AP:
		l.txFromAP(ep, p)
	default:
		l.LostRange++
	}
}

func (l *LAN) txFromStation(st *Station, p *simnet.Packet) {
	if ap := st.ap; ap != nil {
		l.send(&ap.ch, st.pos.Dist(ap.pos), p, ap.radio)
		return
	}
	if l.cfg.AdHoc {
		if p.Dst.Node == simnet.Broadcast {
			// Link-local broadcast: one transmission, every in-range
			// station receives it (the ad hoc route-discovery primitive).
			delivered := false
			for _, peer := range l.stations {
				if peer == st {
					continue
				}
				d := st.pos.Dist(peer.pos)
				if d > l.std.RangeMax {
					continue
				}
				delivered = true
				l.send(&l.adhoc, d, p, peer.radio)
			}
			if !delivered {
				l.LostRange++
			}
			return
		}
		if peer := l.byNode[p.Dst.Node]; peer != nil {
			d := st.pos.Dist(peer.pos)
			if d <= l.std.RangeMax {
				l.send(&l.adhoc, d, p, peer.radio)
				return
			}
		}
	}
	l.LostRange++
	l.net.Tracer.Annotate(p.Trace, "no-coverage")
}

func (l *LAN) txFromAP(ap *AP, p *simnet.Packet) {
	st := l.byNode[p.Dst.Node]
	if st == nil || st.ap != ap {
		l.LostRange++
		l.net.Tracer.Annotate(p.Trace, "no-coverage")
		return
	}
	l.send(&ap.ch, st.pos.Dist(ap.pos), p, st.radio)
}

// channelDequeue frees a channel's queue slot when a frame finishes
// serializing; a package-level func, so scheduling it allocates nothing.
var channelDequeue = func(a any) {
	if ch := a.(*channel); ch.queued > 0 {
		ch.queued--
	}
}

// send models the shared channel: serialization at the distance-dependent
// rate plus MAC overhead, drop-tail queueing, and bit-error loss. A
// surviving frame is carried to dst after the propagation delay.
func (l *LAN) send(ch *channel, dist float64, p *simnet.Packet, dst *simnet.Iface) {
	rate := l.std.RateAt(dist)
	if rate <= 0 {
		l.LostRange++
		l.net.Tracer.Annotate(p.Trace, "no-coverage")
		return
	}
	s := l.net.Sched
	now := s.Now()
	if ch.busyUntil < now {
		ch.busyUntil = now
		ch.queued = 0
	}
	if ch.queued >= l.cfg.QueueLen {
		l.DroppedQ++
		l.net.Tracer.Annotate(p.Trace, "queue-overflow")
		return
	}
	txDone := ch.busyUntil + rate.TxTime(p.Bytes) + macOverhead
	ch.busyUntil = txDone
	ch.queued++
	s.AtCall(txDone, channelDequeue, ch)

	if l.frameLost(dist, p.Bytes) {
		l.LostErrors++
		l.net.Tracer.Annotate(p.Trace, "frame-error")
		return
	}
	// The airtime span covers channel wait + serialization + MAC overhead
	// + propagation on the shared radio channel.
	hop := l.net.Tracer.StartSpan(p.Trace, l.spanName, trace.LayerWireless)
	l.net.Carry(txDone+propagation, dst, p, hop, &l.Delivered)
}

// frameLost draws a per-frame loss from the distance-scaled bit error rate:
// P(loss) = 1 - (1-ber_eff)^bits, ber_eff = BER * (1 + 3 (d/range)^2).
func (l *LAN) frameLost(dist float64, bytes int) bool {
	ber := l.cfg.BitErrorRate
	if ber <= 0 {
		return false
	}
	frac := dist / l.std.RangeMax
	eff := ber * (1 + 3*frac*frac)
	pLoss := 1 - math.Pow(1-eff, float64(bytes*8))
	return l.net.Sched.Rand().Float64() < pLoss
}
