package simnet

import (
	"fmt"

	"mcommerce/internal/metrics"
	"mcommerce/internal/trace"
)

// Medium is anything an interface can transmit onto: a point-to-point Link,
// a wireless cell, or a cellular channel. Implementations deliver the
// packet to the receiving node(s) by calling Node.Deliver, typically after
// modelling serialization, propagation and loss.
type Medium interface {
	// Transmit sends p from the given interface. The caller may recycle p
	// as soon as Transmit returns, so implementations must not retain p
	// beyond the call — Clone (or copy) it before any deferred use.
	Transmit(from *Iface, p *Packet)
}

// Handler consumes packets addressed to a node for a given protocol. The
// packet is recycled after the handler returns: retain the Body, a copy,
// or a Clone — never the *Packet itself.
type Handler func(p *Packet)

// Tap inspects (and may veto) packets traversing a node, including packets
// being forwarded. Taps implement in-network agents such as the Snoop TCP
// accelerator and Mobile IP interception. Returning false swallows the
// packet. Like Handlers, taps must not retain the *Packet past their own
// return.
type Tap func(p *Packet) bool

// TapFlaggedDrop can be returned in future extensions; currently a bool
// verdict suffices.

// Iface is a node's attachment point to a medium.
type Iface struct {
	Node   *Node
	Medium Medium
	// Name is a diagnostic label ("eth0", "radio").
	Name string
	// Up gates transmission and reception; a downed interface silently
	// drops both directions (used to model disconnection).
	Up bool

	// Stats
	TxPackets, RxPackets uint64
	TxBytes, RxBytes     uint64
}

// SetDown sets the interface's administrative state (SetDown(true) is
// equivalent to Up = false). Safe on a nil Iface and allocation-free, so
// fault injectors can flap interfaces on the hot path.
func (i *Iface) SetDown(down bool) {
	if i == nil {
		return
	}
	i.Up = !down
}

// IsDown reports the administrative state; a nil Iface reports down.
func (i *Iface) IsDown() bool { return i == nil || !i.Up }

// Send transmits p on this interface.
func (i *Iface) Send(p *Packet) {
	if !i.Up || i.Medium == nil {
		return
	}
	// A packet that has already been on the wire is being relayed or
	// tunneled onward; distinguish that from origin sends in the trace.
	kind := TraceSend
	if p.onWire {
		kind = TraceForward
	} else {
		p.onWire = true
		p.Sent = i.Node.net.Sched.Now()
	}
	i.TxPackets++
	i.TxBytes += uint64(p.Bytes)
	i.Node.net.trace(TraceEvent{Kind: kind, Node: i.Node, Iface: i, Packet: p})
	i.Medium.Transmit(i, p)
}

// Node is a simulated host or router: a set of interfaces, a static routing
// table, per-protocol handlers and forwarding taps.
type Node struct {
	ID   NodeID
	Name string

	net      *Network
	ifaces   []*Iface
	handlers map[Protocol]Handler
	taps     []Tap

	// routes maps destination node -> interface to send out of. A nil
	// entry in defaultRoute means unroutable.
	routes       map[NodeID]*Iface
	defaultRoute *Iface

	// Forwarding enables routing of packets addressed to other nodes.
	// Hosts leave it false; routers, gateways and access points set it.
	Forwarding bool

	// Dropped counts packets discarded at this node (no route, TTL
	// exhausted, tap veto).
	Dropped uint64

	// udp is the lazily created datagram stack; see UDPOf.
	udp *UDP
}

// Network owns the scheduler and the set of nodes, and assigns node IDs.
// It also owns the packet and delivery-record free lists that make the
// steady-state forwarding path allocation-free; like the scheduler, these
// are single-goroutine structures.
type Network struct {
	Sched  *Scheduler
	nodes  map[NodeID]*Node
	base   NodeID // ID namespace offset (see SetNodeIDBase)
	next   NodeID
	tracer func(TraceEvent)

	// Metrics is the world's telemetry registry. Every component built on
	// this network registers into it at construction, so one Snapshot
	// observes all six of the paper's layers uniformly. Like the
	// scheduler, it is single-goroutine.
	Metrics *metrics.Registry

	// Tracer is the world's causal span tracer, disabled by default
	// (every operation on it is then a single-branch no-op). Enable it
	// with Tracer.EnableExport or Tracer.EnableRing; transaction layers
	// start root spans and simnet propagates their contexts on packets.
	Tracer *trace.Tracer

	pktFree []*Packet
	dlvFree []*linkDelivery
}

// NewNetwork creates an empty network driven by the given scheduler. The
// network owns a fresh metrics registry; the scheduler's own gauges
// (executed/pending event counts, virtual clock) are pre-registered.
func NewNetwork(s *Scheduler) *Network {
	n := &Network{Sched: s, nodes: make(map[NodeID]*Node), Metrics: metrics.New(), Tracer: trace.New(s.Now)}
	sc := n.Metrics.Scope("simnet.sched")
	sc.GaugeFunc("executed", func() int64 { return int64(s.Executed()) })
	sc.GaugeFunc("pending", func() int64 { return int64(s.Pending()) })
	sc.GaugeFunc("now_ns", func() int64 { return int64(s.Now()) })
	// Timing-wheel traffic: both counters are functions of the event
	// stream alone, so they stay identical across worker-lane counts like
	// executed/pending above.
	sc.GaugeFunc("wheel_cascades", func() int64 { return int64(s.Cascades()) })
	sc.GaugeFunc("wheel_overflow_migrations", func() int64 { return int64(s.OverflowMigrations()) })
	return n
}

// SetNodeIDBase offsets every NodeID this network assigns by base.
// Sharded execution gives each shard's network a disjoint base (shard k
// gets k<<20) so addresses stay unambiguous when packets cross shard
// boundaries. Call before the first node is created.
func (n *Network) SetNodeIDBase(base NodeID) {
	if n.next != n.base {
		panic("simnet: SetNodeIDBase after nodes were created")
	}
	n.base = base
	n.next = base
}

// NewNode creates and registers a node. The node's drop counter is
// aliased into the network registry as simnet.node.<name>.dropped (name
// collisions get a deterministic "#n" suffix).
func (n *Network) NewNode(name string) *Node {
	n.next++
	node := &Node{
		ID:       n.next,
		Name:     name,
		net:      n,
		handlers: make(map[Protocol]Handler),
		routes:   make(map[NodeID]*Iface),
	}
	n.nodes[node.ID] = node
	n.Metrics.Instance("simnet.node."+metrics.Sanitize(name)).AliasCounter("dropped", &node.Dropped)
	return node
}

// AllocPacket returns a zeroed packet from the network's free list,
// growing it when empty. Pool-owned packets handed to Node.Send are
// recycled automatically when the send completes, so the caller must not
// keep a reference after Send returns. Packets built as plain &Packet{}
// literals are never recycled and carry no such restriction.
func (n *Network) AllocPacket() *Packet {
	if k := len(n.pktFree); k > 0 {
		p := n.pktFree[k-1]
		n.pktFree = n.pktFree[:k-1]
		p.inPool = false
		return p
	}
	return &Packet{pooled: true}
}

// freePacket recycles a pool-owned packet; packets from plain literals
// pass through untouched.
func (n *Network) freePacket(p *Packet) {
	if !p.pooled {
		return
	}
	if p.inPool {
		panic("simnet: pooled packet freed twice")
	}
	*p = Packet{pooled: true, inPool: true}
	n.pktFree = append(n.pktFree, p)
}

// clonePooled is Clone into a recycled packet, for the media hot path.
func (n *Network) clonePooled(p *Packet) *Packet {
	cp := n.AllocPacket()
	*cp = *p
	cp.pooled, cp.inPool = true, false
	return cp
}

// allocDelivery returns a recycled link delivery record.
func (n *Network) allocDelivery() *linkDelivery {
	if k := len(n.dlvFree); k > 0 {
		d := n.dlvFree[k-1]
		n.dlvFree = n.dlvFree[:k-1]
		return d
	}
	return &linkDelivery{}
}

// freeDelivery recycles a link delivery record.
func (n *Network) freeDelivery(d *linkDelivery) {
	*d = linkDelivery{}
	n.dlvFree = append(n.dlvFree, d)
}

// Node returns the node with the given ID, or nil.
func (n *Network) Node(id NodeID) *Node { return n.nodes[id] }

// Nodes returns all nodes in ID order. The slice is freshly allocated.
func (n *Network) Nodes() []*Node {
	out := make([]*Node, 0, len(n.nodes))
	for id := n.base + 1; id <= n.next; id++ {
		if node, ok := n.nodes[id]; ok {
			out = append(out, node)
		}
	}
	return out
}

// Network returns the network the node belongs to.
func (nd *Node) Network() *Network { return nd.net }

// Sched returns the shared scheduler, for protocol timers.
func (nd *Node) Sched() *Scheduler { return nd.net.Sched }

// AddIface attaches the node to a medium and returns the new interface.
func (nd *Node) AddIface(name string, m Medium) *Iface {
	i := &Iface{Node: nd, Medium: m, Name: name, Up: true}
	nd.ifaces = append(nd.ifaces, i)
	return i
}

// Ifaces returns the node's interfaces. The slice is freshly allocated.
func (nd *Node) Ifaces() []*Iface {
	out := make([]*Iface, len(nd.ifaces))
	copy(out, nd.ifaces)
	return out
}

// Bind registers the handler for a protocol, replacing any previous one.
func (nd *Node) Bind(proto Protocol, h Handler) { nd.handlers[proto] = h }

// Bound reports whether a handler is registered for the protocol.
func (nd *Node) Bound(proto Protocol) bool {
	_, ok := nd.handlers[proto]
	return ok
}

// Unbind removes the handler for a protocol.
func (nd *Node) Unbind(proto Protocol) { delete(nd.handlers, proto) }

// AddTap installs a forwarding/delivery tap. Taps run in installation
// order for every packet arriving at the node, before local delivery or
// forwarding.
func (nd *Node) AddTap(t Tap) { nd.taps = append(nd.taps, t) }

// SetRoute directs traffic for dst out of iface.
func (nd *Node) SetRoute(dst NodeID, via *Iface) { nd.routes[dst] = via }

// ClearRoute removes the specific route for dst, if any.
func (nd *Node) ClearRoute(dst NodeID) { delete(nd.routes, dst) }

// SetDefaultRoute directs traffic with no specific route out of iface.
func (nd *Node) SetDefaultRoute(via *Iface) { nd.defaultRoute = via }

// RouteTo returns the interface a packet for dst would leave through.
func (nd *Node) RouteTo(dst NodeID) *Iface {
	if i, ok := nd.routes[dst]; ok {
		return i
	}
	return nd.defaultRoute
}

// Send originates a packet from this node, stamping defaults and routing
// it. Packets from Network.AllocPacket are recycled before Send returns —
// media transmit a copy, so the caller must not touch p afterwards.
func (nd *Node) Send(p *Packet) {
	if p.TTL == 0 {
		p.TTL = DefaultTTL
	}
	if p.Bytes <= 0 {
		p.Bytes = 1
	}
	// Inherit the ambient span context: replies sent from a delivery
	// handler, tunnel encapsulations and timer-driven retransmits under a
	// restored context all join the originating transaction's trace.
	if p.Trace.Trace == 0 {
		p.Trace = nd.net.Tracer.Current()
	}
	nd.dispatch(p)
	nd.net.freePacket(p)
}

// Deliver hands a packet that has arrived over a medium to the node. It is
// called by Medium implementations. The receiving interface may be nil for
// internally generated packets.
func (nd *Node) Deliver(p *Packet, via *Iface) {
	if via != nil {
		if !via.Up {
			nd.drop(p, via, "iface-down")
			return
		}
		via.RxPackets++
		via.RxBytes += uint64(p.Bytes)
	}
	// Reinstate the packet's span context for the synchronous extent of
	// its handling: taps, handlers and anything they send inherit it.
	prev := nd.net.Tracer.Swap(p.Trace)
	defer nd.net.Tracer.Swap(prev)
	nd.net.trace(TraceEvent{Kind: TraceDeliver, Node: nd, Iface: via, Packet: p})
	for _, t := range nd.taps {
		if !t(p) {
			nd.net.trace(TraceEvent{Kind: TraceDrop, Node: nd, Iface: via, Packet: p, Reason: "tap"})
			return
		}
	}
	nd.dispatch(p)
}

// Drop discards a packet, counting it and emitting a trace event. Protocol
// layers outside this package use it so their discards appear in traces.
func (nd *Node) Drop(p *Packet, reason string) { nd.drop(p, nil, reason) }

// drop discards a packet, counting and tracing it. The drop reason is
// also annotated onto the packet's causal span (reasons are constant
// strings, so this stays allocation-free).
func (nd *Node) drop(p *Packet, via *Iface, reason string) {
	nd.Dropped++
	nd.net.Tracer.Annotate(p.Trace, reason)
	nd.net.trace(TraceEvent{Kind: TraceDrop, Node: nd, Iface: via, Packet: p, Reason: reason})
}

// dispatch delivers locally or forwards.
func (nd *Node) dispatch(p *Packet) {
	// A broadcast we originated goes onto the medium; a broadcast that
	// arrived over the medium is for us.
	if p.Dst.Node == Broadcast && !p.onWire {
		if out := nd.defaultRoute; out != nil {
			out.Send(p)
		} else {
			nd.drop(p, nil, "no-route")
		}
		return
	}
	if p.Dst.Node == nd.ID || p.Dst.Node == Broadcast {
		if h, ok := nd.handlers[p.Proto]; ok {
			h(p)
		} else {
			nd.drop(p, nil, "no-handler")
		}
		return
	}
	// Packets that have already been on the wire are being forwarded;
	// locally originated packets skip the forwarding check and TTL
	// decrement.
	if p.onWire {
		if !nd.Forwarding {
			nd.drop(p, nil, "not-forwarding")
			return
		}
		p.TTL--
		if p.TTL <= 0 {
			nd.drop(p, nil, "ttl")
			return
		}
	}
	out := nd.RouteTo(p.Dst.Node)
	if out == nil {
		nd.drop(p, nil, "no-route")
		return
	}
	out.Send(p)
}

func (nd *Node) String() string {
	return fmt.Sprintf("node %d (%s)", nd.ID, nd.Name)
}
