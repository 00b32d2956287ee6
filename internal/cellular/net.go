package cellular

import (
	"errors"
	"fmt"
	"math"
	"time"

	"mcommerce/internal/metrics"
	"mcommerce/internal/simnet"
	"mcommerce/internal/trace"
	"mcommerce/internal/wireless"
)

// Errors returned by call management.
var (
	// ErrNoDataService is returned when a mobile on an analog 1G standard
	// attempts a data call.
	ErrNoDataService = errors.New("cellular: standard has no data service")
	// ErrBlocked is returned when a circuit call cannot be placed because
	// the cell has no free traffic channels.
	ErrBlocked = errors.New("cellular: call blocked, no free channels")
	// ErrNoCoverage is returned when the mobile is outside every cell.
	ErrNoCoverage = errors.New("cellular: no coverage")
	// ErrCallActive is returned when placing a call on a busy mobile.
	ErrCallActive = errors.New("cellular: call already active")
	// ErrNotPacketSwitched is returned when attaching on a circuit network.
	ErrNotPacketSwitched = errors.New("cellular: standard is not packet-switched")
)

// Config tunes the cellular model.
type Config struct {
	// ChannelsPerCell is the number of circuit traffic channels per cell.
	ChannelsPerCell int
	// BitErrorRate is the per-bit error probability.
	BitErrorRate float64
	// QueueLen is the packet-scheduler queue capacity per direction.
	QueueLen int
	// DisableQoS turns off priority scheduling on 3G standards (the QoS
	// ablation experiment).
	DisableQoS bool
	// OnAssociate, if set, runs after a mobile attaches to a cell
	// (initially and after each handoff).
	OnAssociate func(m *Mobile, c *Cell)
	// OnHandoff, if set, runs when a handoff begins.
	OnHandoff func(m *Mobile, from, to *Cell)
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{
		ChannelsPerCell: 16,
		BitErrorRate:    1e-6,
		QueueLen:        simnet.DefaultQueueLen,
	}
}

// cellRadius is the coverage radius of each base station in meters.
// Cellular coverage is far wider than WLAN (paper summary).
const cellRadius = 5000

// Cellular timing.
const (
	// circuitSetup is the call-establishment latency for circuit-switched
	// standards.
	circuitSetup = 1200 * time.Millisecond
	// attachLatency is the one-time attach cost for packet-switched
	// standards, after which the mobile is "always-on".
	attachLatency = 500 * time.Millisecond
	// propagation is the one-way air propagation delay (cells are km
	// scale; includes base-station processing).
	propagation = 5 * time.Millisecond
	// handoffLatency is the blackout while a mobile changes cells.
	handoffLatency = 300 * time.Millisecond
)

// frame is a queued transmission on a cell's shared packet channel: the
// packet by value (the transmitting caller recycles its own), its QoS
// class and the radio it is bound for.
type frame struct {
	p     simnet.Packet
	class QoSClass
	dst   *simnet.Iface
}

// xmitter is a store-and-forward transmitter with an optional
// priority-by-QoS-class queue. One per direction per cell (packet mode) or
// per call (circuit mode).
type xmitter struct {
	net   *Net
	rate  simnet.Rate
	qos   bool
	queue []frame
	// cur is the frame being serialized while busy.
	cur  frame
	busy bool
}

func (x *xmitter) enqueue(p *simnet.Packet, class QoSClass, dst *simnet.Iface) bool {
	if len(x.queue) >= x.net.cfg.QueueLen {
		x.net.DroppedQ++
		return false
	}
	// Stable priority order, class first and arrival second: a frame
	// goes behind every queued frame of its class or a more urgent one.
	i := len(x.queue)
	if x.qos {
		for i > 0 && x.queue[i-1].class > class {
			i--
		}
	}
	x.queue = append(x.queue, frame{})
	copy(x.queue[i+1:], x.queue[i:])
	x.queue[i] = frame{p: *p, class: class, dst: dst}
	if !x.busy {
		x.busy = true
		x.next()
	}
	return true
}

// next starts serializing the queue head, or idles the transmitter.
func (x *xmitter) next() {
	if len(x.queue) == 0 {
		x.busy = false
		return
	}
	x.cur = x.queue[0]
	n := copy(x.queue, x.queue[1:])
	x.queue[n] = frame{} // drop the Body reference for the GC
	x.queue = x.queue[:n]
	x.net.sched.AfterCall(x.rate.TxTime(x.cur.p.Bytes), xmitDone, x)
}

// xmitDone ends the current frame's serialization: the loss verdict, the
// propagation leg through Carry, then the next frame. A package-level
// func, so scheduling it allocates nothing.
func xmitDone(a any) {
	x := a.(*xmitter)
	n := x.net
	if !n.frameLost(x.cur.p.Bytes) {
		n.simn.Carry(n.sched.Now()+propagation, x.cur.dst, &x.cur.p, trace.Context{}, &n.Delivered)
	} else {
		n.LostErrors++
	}
	x.cur = frame{}
	x.next()
}

// Net is a cellular network of one Standard: base stations (cells) and
// mobiles. It implements simnet.Medium for the radio interfaces it creates.
type Net struct {
	std   Standard
	cfg   Config
	simn  *simnet.Network
	sched *simnet.Scheduler

	cells   []*Cell
	byIface map[*simnet.Iface]any
	// byNode indexes mobiles by node, keeping the first per node, for
	// the per-frame destination lookup.
	byNode map[simnet.NodeID]*Mobile

	// Stats
	Delivered    uint64
	LostErrors   uint64
	LostRange    uint64
	DroppedQ     uint64
	BlockedCalls uint64
	Handoffs     uint64
}

var _ simnet.Medium = (*Net)(nil)

// New creates an empty cellular network of the given standard. Its medium
// counters register under cellular.<standard>.
func New(simn *simnet.Network, std Standard, cfg Config) *Net {
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = simnet.DefaultQueueLen
	}
	n := &Net{std: std, cfg: cfg, simn: simn, sched: simn.Sched, byIface: make(map[*simnet.Iface]any), byNode: make(map[simnet.NodeID]*Mobile)}
	sc := simn.Metrics.Instance("cellular." + metrics.Sanitize(std.Name))
	sc.AliasCounter("delivered", &n.Delivered)
	sc.AliasCounter("lost_errors", &n.LostErrors)
	sc.AliasCounter("lost_range", &n.LostRange)
	sc.AliasCounter("dropped_queue", &n.DroppedQ)
	sc.AliasCounter("blocked_calls", &n.BlockedCalls)
	sc.AliasCounter("handoffs", &n.Handoffs)
	return n
}

// Standard returns the network's cellular standard.
func (n *Net) Standard() Standard { return n.std }

// Cell is a base station: radio coverage plus circuit channels and the
// shared packet scheduler.
type Cell struct {
	net   *Net
	node  *simnet.Node
	radio *simnet.Iface
	pos   wireless.Position

	// circuit state
	callsInUse int

	// packet state: shared downlink/uplink transmitters.
	down, up xmitter
}

// CallsInUse returns the number of occupied circuit channels.
func (c *Cell) CallsInUse() int { return c.callsInUse }

// AddCell attaches a base-station radio to node at pos. The node is marked
// forwarding.
func (n *Net) AddCell(node *simnet.Node, pos wireless.Position) *Cell {
	c := &Cell{net: n, node: node, pos: pos}
	c.radio = node.AddIface("radio-bts", n)
	node.Forwarding = true
	shared := n.std.DataRate
	qos := n.std.QoS && !n.cfg.DisableQoS
	c.down = xmitter{net: n, rate: shared, qos: qos}
	c.up = xmitter{net: n, rate: shared, qos: qos}
	n.cells = append(n.cells, c)
	n.byIface[c.radio] = c
	return c
}

// Mobile is a cellular terminal: position, serving cell, call/attach state
// and QoS subscription class.
type Mobile struct {
	net   *Net
	node  *simnet.Node
	radio *simnet.Iface
	pos   wireless.Position

	cell     *Cell
	blackout bool
	attached bool // packet-switched attach completed
	inCall   bool // circuit call active
	// circuit per-call dedicated transmitters
	callDown, callUp *xmitter

	// Class is the mobile's QoS subscription class (3G). Zero is treated
	// as Background.
	Class QoSClass
}

// Cell returns the serving cell, or nil outside coverage or in handoff.
func (m *Mobile) Cell() *Cell {
	if m.blackout {
		return nil
	}
	return m.cell
}

// InCall reports whether a circuit call is active.
func (m *Mobile) InCall() bool { return m.inCall }

// Attached reports whether packet service is up ("always-on" after the
// initial attach).
func (m *Mobile) Attached() bool { return m.attached && m.cell != nil && !m.blackout }

// AddMobile attaches a mobile radio to node at pos, sets the node's default
// route out of the radio, and camps on the nearest cell in range.
func (n *Net) AddMobile(node *simnet.Node, pos wireless.Position) *Mobile {
	m := &Mobile{net: n, node: node, pos: pos, Class: Background}
	m.radio = node.AddIface("radio-cell", n)
	node.SetDefaultRoute(m.radio)
	n.byIface[m.radio] = m
	if _, ok := n.byNode[node.ID]; !ok {
		n.byNode[node.ID] = m
	}
	m.recamp()
	return m
}

func (n *Net) bestCell(pos wireless.Position) *Cell {
	var best *Cell
	bestD := math.Inf(1)
	for _, c := range n.cells {
		d := c.pos.Dist(pos)
		if d <= cellRadius && d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

func (m *Mobile) recamp() {
	n := m.net
	best := n.bestCell(m.pos)
	if best == m.cell {
		return
	}
	old := m.cell
	if old != nil {
		old.node.ClearRoute(m.node.ID)
		if m.inCall {
			// The dedicated channel moves with the call; occupancy
			// transfers between cells.
			old.callsInUse--
		}
	}
	m.cell = best
	if best == nil {
		if m.inCall {
			m.endCallState()
		}
		return
	}
	if n.cfg.OnHandoff != nil && old != nil {
		n.cfg.OnHandoff(m, old, best)
	}
	complete := func() {
		m.blackout = false
		best.node.SetRoute(m.node.ID, best.radio)
		if m.inCall {
			best.callsInUse++
		}
		if n.cfg.OnAssociate != nil {
			n.cfg.OnAssociate(m, best)
		}
	}
	if old == nil {
		complete()
		return
	}
	n.Handoffs++
	m.blackout = true
	n.sched.After(handoffLatency, func() {
		if m.cell == best {
			complete()
		}
	})
}

// MoveTo repositions the mobile and re-evaluates the serving cell.
func (m *Mobile) MoveTo(pos wireless.Position) {
	m.pos = pos
	m.recamp()
}

// Attach brings up packet service. The done callback (optional) fires when
// the attach completes; afterwards the mobile is always-on. On
// circuit-switched or analog standards it returns an error.
func (m *Mobile) Attach(done func()) error {
	if m.net.std.Switching != PacketSwitched {
		return ErrNotPacketSwitched
	}
	if !m.net.std.SupportsData() {
		return ErrNoDataService
	}
	if m.cell == nil {
		return ErrNoCoverage
	}
	if m.attached {
		if done != nil {
			done()
		}
		return nil
	}
	m.net.sched.After(attachLatency, func() {
		m.attached = true
		if done != nil {
			done()
		}
	})
	return nil
}

// PlaceCall establishes a circuit data call. The done callback (optional)
// fires when the call is up. Calls block (ErrBlocked) when the cell's
// traffic channels are exhausted, and fail on analog standards that carry
// no data.
func (m *Mobile) PlaceCall(done func()) error {
	if m.net.std.Switching != CircuitSwitched {
		return fmt.Errorf("cellular: %s is packet-switched; use Attach", m.net.std.Name)
	}
	if !m.net.std.SupportsData() {
		return ErrNoDataService
	}
	if m.inCall {
		return ErrCallActive
	}
	cell := m.Cell()
	if cell == nil {
		return ErrNoCoverage
	}
	if cell.callsInUse >= m.net.cfg.ChannelsPerCell {
		m.net.BlockedCalls++
		return ErrBlocked
	}
	cell.callsInUse++
	m.inCall = true
	rate := m.net.std.DataRate
	m.callDown = &xmitter{net: m.net, rate: rate}
	m.callUp = &xmitter{net: m.net, rate: rate}
	m.net.sched.After(circuitSetup, func() {
		if m.inCall && done != nil {
			done()
		}
	})
	return nil
}

// HangUp releases an active circuit call.
func (m *Mobile) HangUp() {
	if !m.inCall {
		return
	}
	if c := m.Cell(); c != nil {
		c.callsInUse--
	}
	m.endCallState()
}

func (m *Mobile) endCallState() {
	m.inCall = false
	m.callDown = nil
	m.callUp = nil
}

// OccupyChannels seizes k circuit channels on the cell (modelling ambient
// voice load). It returns the number actually seized.
func (c *Cell) OccupyChannels(k int) int {
	free := c.net.cfg.ChannelsPerCell - c.callsInUse
	if k > free {
		k = free
	}
	if k < 0 {
		k = 0
	}
	c.callsInUse += k
	return k
}

// ReleaseChannels releases k previously occupied channels.
func (c *Cell) ReleaseChannels(k int) {
	c.callsInUse -= k
	if c.callsInUse < 0 {
		c.callsInUse = 0
	}
}

// Transmit implements simnet.Medium.
func (n *Net) Transmit(from *simnet.Iface, p *simnet.Packet) {
	switch ep := n.byIface[from].(type) {
	case *Mobile:
		n.txFromMobile(ep, p)
	case *Cell:
		n.txFromCell(ep, p)
	default:
		n.LostRange++
	}
}

func (n *Net) txFromMobile(m *Mobile, p *simnet.Packet) {
	cell := m.Cell()
	if cell == nil {
		n.LostRange++
		return
	}
	switch n.std.Switching {
	case CircuitSwitched:
		if !m.inCall || m.callUp == nil {
			n.LostRange++
			return
		}
		m.callUp.enqueue(p, 0, cell.radio)
	case PacketSwitched:
		if !m.Attached() {
			n.LostRange++
			return
		}
		cell.up.enqueue(p, m.classOrDefault(), cell.radio)
	}
}

func (n *Net) txFromCell(c *Cell, p *simnet.Packet) {
	m := n.byNode[p.Dst.Node]
	if m == nil || m.Cell() != c {
		n.LostRange++
		return
	}
	switch n.std.Switching {
	case CircuitSwitched:
		if !m.inCall || m.callDown == nil {
			n.LostRange++
			return
		}
		m.callDown.enqueue(p, 0, m.radio)
	case PacketSwitched:
		if !m.Attached() {
			n.LostRange++
			return
		}
		c.down.enqueue(p, m.classOrDefault(), m.radio)
	}
}

func (m *Mobile) classOrDefault() QoSClass {
	if m.Class == 0 {
		return Background
	}
	return m.Class
}

func (n *Net) frameLost(bytes int) bool {
	ber := n.cfg.BitErrorRate
	if ber <= 0 {
		return false
	}
	pLoss := 1 - math.Pow(1-ber, float64(bytes*8))
	return n.sched.Rand().Float64() < pLoss
}
