package mtcp

import (
	"mcommerce/internal/metrics"
	"mcommerce/internal/simnet"
)

// SnoopStats counts the agent's activity.
type SnoopStats struct {
	Cached            uint64 // data segments cached
	LocalRetransmits  uint64 // segments re-sent locally to the mobile
	SuppressedDupAcks uint64 // duplicate ACKs hidden from the fixed sender
}

// snoopFlow tracks one fixed-host → mobile TCP flow at the access point.
// Sequence bookkeeping is 32-bit modular, matching the transport.
type snoopFlow struct {
	cache    map[uint32]*simnet.Packet // seq -> cached data packet
	lastAck  uint32
	haveAck  bool
	dupCount int
}

// SnoopAgent implements the Berkeley Snoop protocol of Balakrishnan et
// al. [1], the paper's "packet caching scheme to reduce the TCP
// retransmission overhead". Installed as a forwarding tap on the access
// point (or base station) node, it:
//
//   - caches TCP data segments flowing toward mobile nodes;
//   - on a duplicate ACK from the mobile, retransmits the missing segment
//     locally across the wireless hop and suppresses the duplicate ACK, so
//     the fixed sender never sees the wireless loss and never shrinks its
//     congestion window;
//   - passes duplicate ACKs through untouched when it does not hold the
//     missing segment (a loss on the wired path is real congestion and the
//     sender must react).
//
// The agent is transparent: end hosts run unmodified TCP.
type SnoopAgent struct {
	node     *simnet.Node
	isMobile func(simnet.NodeID) bool
	flows    map[connPair]*snoopFlow

	stats SnoopStats
}

type connPair struct {
	fixed  simnet.Addr // data sender
	mobile simnet.Addr // data receiver
}

// snoopMaxCache bounds the segments a snoop agent caches per flow.
const snoopMaxCache = 256

// NewSnoopAgent installs a snoop tap on node. isMobile classifies node IDs
// on the wireless side of the AP; only flows toward those nodes are
// snooped.
func NewSnoopAgent(node *simnet.Node, isMobile func(simnet.NodeID) bool) *SnoopAgent {
	a := &SnoopAgent{
		node:     node,
		isMobile: isMobile,
		flows:    make(map[connPair]*snoopFlow),
	}
	sc := node.Network().Metrics.Instance("mtcp.snoop." + metrics.Sanitize(node.Name))
	sc.AliasCounter("cached", &a.stats.Cached)
	sc.AliasCounter("local_retransmits", &a.stats.LocalRetransmits)
	sc.AliasCounter("suppressed_dup_acks", &a.stats.SuppressedDupAcks)
	node.AddTap(a.tap)
	return a
}

// Stats returns a snapshot of the agent's counters.
func (a *SnoopAgent) Stats() SnoopStats { return a.stats }

func (a *SnoopAgent) tap(p *simnet.Packet) bool {
	if p.Proto != simnet.ProtoTCP || p.Dst.Node == a.node.ID {
		return true
	}
	seg, ok := p.Body.(*Segment)
	if !ok {
		return true
	}
	switch {
	case a.isMobile(p.Dst.Node) && len(seg.Payload) > 0:
		a.cacheData(connPair{fixed: p.Src, mobile: p.Dst}, p, seg)
	case a.isMobile(p.Src.Node) && len(seg.Payload) == 0 && seg.Flags&ACK != 0 && seg.Flags&(SYN|FIN|RST) == 0:
		return a.handleAck(connPair{fixed: p.Dst, mobile: p.Src}, seg)
	}
	return true
}

func (a *SnoopAgent) flow(key connPair) *snoopFlow {
	f, ok := a.flows[key]
	if !ok {
		f = &snoopFlow{cache: make(map[uint32]*simnet.Packet)}
		a.flows[key] = f
	}
	return f
}

// cacheData retains a copy of a data segment heading to the mobile. The
// forwarded segment is pool-owned and its payload aliases the sender's
// buffer, so the cache takes a fully-owned deep copy: an unpooled
// Segment (the receiving stack must not recycle it out from under later
// local retransmissions) with its own payload bytes (the sender reuses
// its buffer once the stream is acknowledged).
func (a *SnoopAgent) cacheData(key connPair, p *simnet.Packet, seg *Segment) {
	f := a.flow(key)
	if len(f.cache) >= snoopMaxCache {
		return
	}
	if _, dup := f.cache[seg.Seq]; dup {
		return
	}
	cp := p.Clone()
	own := seg.clone()
	own.Payload = append([]byte(nil), seg.Payload...)
	cp.Body = own
	f.cache[seg.Seq] = cp
	a.stats.Cached++
}

// handleAck processes an ACK from the mobile toward the fixed sender.
// The verdict is whether to forward the ACK upstream.
func (a *SnoopAgent) handleAck(key connPair, seg *Segment) bool {
	f := a.flow(key)
	if !f.haveAck || seqGT(seg.Ack, f.lastAck) {
		// New ACK: evict acknowledged segments, pass upstream.
		f.haveAck = true
		f.lastAck = seg.Ack
		f.dupCount = 0
		for s, q := range f.cache {
			qseg, ok := q.Body.(*Segment)
			if ok && seqLE(s+qseg.Len(), seg.Ack) {
				delete(f.cache, s)
			}
		}
		return true
	}
	if seqLT(seg.Ack, f.lastAck) {
		return true // stale, let the end host sort it out
	}
	// Duplicate ACK. If we hold the missing segment the loss was on the
	// wireless hop: retransmit locally and hide the dupack.
	cached, ok := f.cache[seg.Ack]
	if !ok {
		return true
	}
	f.dupCount++
	// Retransmit on the first duplicate, then again every few more in
	// case the local retransmission itself was lost.
	if f.dupCount == 1 || f.dupCount%4 == 0 {
		rt := cached.Clone()
		rt.TTL = simnet.DefaultTTL
		// The cached clone still carries the original segment's span
		// context, so the local retransmission stays in the right trace.
		a.node.Network().Tracer.Annotate(rt.Trace, "snoop.local_rtx")
		a.node.Send(rt)
		a.stats.LocalRetransmits++
	}
	a.stats.SuppressedDupAcks++
	return false
}
