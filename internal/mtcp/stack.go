package mtcp

import (
	"errors"
	"fmt"

	"mcommerce/internal/metrics"
	"mcommerce/internal/simnet"
	"mcommerce/internal/trace"
)

// Errors reported through connection callbacks or returned by Stack calls.
var (
	// ErrReset indicates the peer aborted the connection.
	ErrReset = errors.New("mtcp: connection reset by peer")
	// ErrTimeout indicates retransmission retries were exhausted.
	ErrTimeout = errors.New("mtcp: connection timed out")
	// ErrPortInUse indicates a Listen on an occupied port.
	ErrPortInUse = errors.New("mtcp: port in use")
)

type connKey struct {
	local  simnet.Port
	remote simnet.Addr
}

type listener struct {
	accept func(*Conn)
	opts   Options
}

// stackMetrics are the stack's node-level aggregates in the world
// registry: sums over every connection the stack ever carried, plus the
// RTT sample distribution. Per-connection figures stay on Conn.Stats —
// the registry holds the per-layer roll-up the telemetry spine needs.
// rtx/rto are the transport-refactor counter names (retransmitted
// segments, RTO expiries); retransmits/timeouts remain as the historical
// aliases older dashboards read. cwnd tracks the summed congestion
// window of live connections; state.* count entries into each RFC 793
// state.
type stackMetrics struct {
	connsDialed     metrics.Counter
	connsAccepted   metrics.Counter
	segmentsSent    metrics.Counter
	segmentsRcvd    metrics.Counter
	bytesSent       metrics.Counter
	bytesRcvd       metrics.Counter
	retransmits     metrics.Counter
	timeouts        metrics.Counter
	fastRetransmits metrics.Counter
	dupAcksSent     metrics.Counter
	rtx             metrics.Counter
	rto             metrics.Counter
	rstsSent        metrics.Counter
	cwnd            metrics.Gauge
	stateEntries    [stateCount]metrics.Counter
	rtt             metrics.Histogram
}

// Stack is a node's TCP protocol instance: it demultiplexes ProtoTCP
// packets to connections and listeners. Create at most one per node.
type Stack struct {
	node      *simnet.Node
	conns     map[connKey]*Conn
	listeners map[simnet.Port]*listener
	// localPorts refcounts connections per local port so ephemeral-port
	// assignment is O(1) even with thousands of TIME_WAIT holds.
	localPorts map[simnet.Port]int
	nextPort   simnet.Port

	// segFree is the stack's segment free list. Senders allocate here;
	// the receiving stack recycles into its own list after delivery, so
	// steady-state request/response traffic moves zero-allocation
	// segments in both directions.
	segFree []*Segment

	m stackMetrics
}

// NewStack binds a TCP stack to the node. It returns an error if the node
// already has a ProtoTCP handler (one stack per node). The stack's
// aggregate counters register under mtcp.<node name>.
func NewStack(node *simnet.Node) (*Stack, error) {
	if node.Bound(simnet.ProtoTCP) {
		return nil, fmt.Errorf("mtcp: %s already has a TCP stack", node)
	}
	s := &Stack{
		node:       node,
		conns:      make(map[connKey]*Conn),
		listeners:  make(map[simnet.Port]*listener),
		localPorts: make(map[simnet.Port]int),
		nextPort:   32768,
	}
	sc := node.Network().Metrics.Instance("mtcp." + metrics.Sanitize(node.Name))
	s.m = stackMetrics{
		connsDialed:     sc.Counter("conns_dialed"),
		connsAccepted:   sc.Counter("conns_accepted"),
		segmentsSent:    sc.Counter("segments_sent"),
		segmentsRcvd:    sc.Counter("segments_received"),
		bytesSent:       sc.Counter("bytes_sent"),
		bytesRcvd:       sc.Counter("bytes_received"),
		retransmits:     sc.Counter("retransmits"),
		timeouts:        sc.Counter("timeouts"),
		fastRetransmits: sc.Counter("fast_retransmits"),
		dupAcksSent:     sc.Counter("dup_acks_sent"),
		rtx:             sc.Counter("rtx"),
		rto:             sc.Counter("rto"),
		rstsSent:        sc.Counter("rsts_sent"),
		cwnd:            sc.Gauge("cwnd"),
		rtt:             sc.Histogram("rtt"),
	}
	for st := connState(0); st < stateCount; st++ {
		s.m.stateEntries[st] = sc.Counter(stateMetricNames[st])
	}
	node.Bind(simnet.ProtoTCP, s.deliver)
	return s, nil
}

// MustNewStack is NewStack for topology construction where a duplicate
// stack is a programming error.
func MustNewStack(node *simnet.Node) *Stack {
	s, err := NewStack(node)
	if err != nil {
		panic(err)
	}
	return s
}

// Node returns the node the stack is bound to.
func (s *Stack) Node() *simnet.Node { return s.node }

// --- segment pool ---

// allocSeg returns a zeroed pool-owned segment.
func (s *Stack) allocSeg() *Segment {
	if k := len(s.segFree); k > 0 {
		seg := s.segFree[k-1]
		s.segFree = s.segFree[:k-1]
		*seg = Segment{pooled: true}
		return seg
	}
	return &Segment{pooled: true}
}

// freeSeg recycles a pool-owned segment. Unpooled segments (clones,
// literals from tests) pass through untouched.
func (s *Stack) freeSeg(seg *Segment) {
	if !seg.pooled {
		return
	}
	seg.pooled = false
	seg.Payload = nil
	s.segFree = append(s.segFree, seg)
}

// --- listeners and dialing ---

// Listen registers an accept callback on the port. Each established inbound
// connection is passed to accept. Options apply to accepted connections.
func (s *Stack) Listen(port simnet.Port, opts Options, accept func(*Conn)) error {
	if _, ok := s.listeners[port]; ok {
		return fmt.Errorf("%w: %d on %s", ErrPortInUse, port, s.node)
	}
	s.listeners[port] = &listener{accept: accept, opts: opts.withDefaults()}
	return nil
}

// Unlisten removes the listener on port. Established connections survive.
func (s *Stack) Unlisten(port simnet.Port) { delete(s.listeners, port) }

// Dial opens a connection to raddr. The connected callback fires once with
// (conn, nil) on establishment or (nil, err) on failure. The returned Conn
// can be used immediately to queue data; it is the same value the callback
// receives.
func (s *Stack) Dial(raddr simnet.Addr, opts Options, connected func(*Conn, error)) *Conn {
	port := s.ephemeralPort()
	c := newConn(s, port, raddr, opts.withDefaults())
	c.onConnect = connected
	// The dialing side owns a transport span for the connection's whole
	// lifetime: RTO stalls, handshake retries and retransmission waits all
	// attribute to it (the accepted side only inherits the caller's
	// context, so the transport leg is not double-counted).
	tr := s.node.Network().Tracer
	if parent := tr.Current(); parent.Sampled() {
		c.ctx = tr.StartSpan(parent, "mtcp.conn", trace.LayerTransport)
		c.ownSpan = true
	}
	s.insert(c)
	s.m.connsDialed.Inc()
	c.startConnect()
	return c
}

func (s *Stack) ephemeralPort() simnet.Port {
	for {
		s.nextPort++
		if s.nextPort == 0 {
			s.nextPort = 32768
		}
		if !s.portBusy(s.nextPort) {
			return s.nextPort
		}
	}
}

func (s *Stack) portBusy(p simnet.Port) bool {
	if _, ok := s.listeners[p]; ok {
		return true
	}
	return s.localPorts[p] > 0
}

// deliver demultiplexes an inbound ProtoTCP packet; the segment is
// recycled afterwards (connections copy anything they retain).
func (s *Stack) deliver(p *simnet.Packet) {
	seg, ok := p.Body.(*Segment)
	if !ok {
		s.node.Drop(p, "not-a-segment")
		return
	}
	s.dispatch(p, seg)
	s.freeSeg(seg)
}

func (s *Stack) dispatch(p *simnet.Packet, seg *Segment) {
	key := connKey{local: p.Dst.Port, remote: p.Src}
	if c, ok := s.conns[key]; ok {
		c.receive(seg)
		return
	}
	if l, ok := s.listeners[p.Dst.Port]; ok && seg.Flags&SYN != 0 && seg.Flags&ACK == 0 {
		c := newConn(s, p.Dst.Port, p.Src, l.opts)
		c.acceptFn = l.accept
		s.insert(c)
		s.m.connsAccepted.Inc()
		c.startAccept(seg)
		return
	}
	// A FIN for a connection we already closed (its TIME_WAIT hold has
	// expired): the peer lost our final ACK. Re-ACK instead of resetting
	// so its orderly close completes.
	if seg.Flags&FIN != 0 {
		reply := s.allocSeg()
		reply.Flags = ACK
		reply.Seq = seg.Ack
		reply.Ack = seg.Seq + seg.Len()
		s.sendRaw(p.Dst.Port, p.Src, reply, trace.Context{})
		return
	}
	// Unknown connection: reset, unless this is itself a reset.
	if seg.Flags&RST == 0 {
		reply := s.allocSeg()
		reply.Flags = RST | ACK
		reply.Seq = seg.Ack
		reply.Ack = seg.Seq + seg.Len()
		s.m.rstsSent.Inc()
		s.sendRaw(p.Dst.Port, p.Src, reply, trace.Context{})
	}
}

// sendRaw emits a segment. All of the stack's transmissions funnel through
// here; the packet shell comes from the network pool so the per-segment
// cost is only the (also pooled) segment itself. ctx ties the packet to
// its connection's span; the zero context falls back to the ambient one
// in Node.Send (the right answer for raw replies emitted inside a
// delivery).
func (s *Stack) sendRaw(local simnet.Port, remote simnet.Addr, seg *Segment, ctx trace.Context) {
	p := s.node.Network().AllocPacket()
	p.Src = simnet.Addr{Node: s.node.ID, Port: local}
	p.Dst = remote
	p.Proto = simnet.ProtoTCP
	p.Bytes = simnet.TCPHeaderBytes + len(seg.Payload)
	p.Body = seg
	p.Trace = ctx
	s.node.Send(p)
}

func (s *Stack) insert(c *Conn) {
	s.conns[connKey{local: c.localPort, remote: c.remote}] = c
	s.localPorts[c.localPort]++
}

func (s *Stack) remove(c *Conn) {
	key := connKey{local: c.localPort, remote: c.remote}
	if _, ok := s.conns[key]; !ok {
		return
	}
	delete(s.conns, key)
	if n := s.localPorts[c.localPort]; n <= 1 {
		delete(s.localPorts, c.localPort)
	} else {
		s.localPorts[c.localPort] = n - 1
	}
}
