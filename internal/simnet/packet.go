package simnet

import (
	"fmt"
	"time"

	"mcommerce/internal/trace"
)

// NodeID identifies a node in the simulated internetwork. IDs are assigned
// by the Network that creates the node and act as flat network-layer
// addresses (the simulation does not model subnet masks; subnets are
// expressed through routing tables).
type NodeID int32

// Broadcast is the destination NodeID for link-local broadcast frames.
const Broadcast NodeID = -1

// Port identifies a transport-layer endpoint within a node.
type Port uint16

// Addr is a full transport address: node plus port.
type Addr struct {
	Node NodeID
	Port Port
}

func (a Addr) String() string { return fmt.Sprintf("%d:%d", a.Node, a.Port) }

// Protocol tags the transport or control protocol a packet belongs to, for
// demultiplexing at the destination node.
type Protocol uint8

// Protocol numbers. They are arbitrary but stable; Tunnel is IP-in-IP
// encapsulation used by Mobile IP.
const (
	ProtoUDP Protocol = iota + 1
	ProtoTCP
	ProtoTunnel
	ProtoControl
)

func (p Protocol) String() string {
	switch p {
	case ProtoUDP:
		return "UDP"
	case ProtoTCP:
		return "TCP"
	case ProtoTunnel:
		return "TUNNEL"
	case ProtoControl:
		return "CTL"
	default:
		return fmt.Sprintf("PROTO(%d)", uint8(p))
	}
}

// DefaultTTL is the initial hop limit for packets that do not set one.
const DefaultTTL = 32

// Packet is a simulated network-layer datagram. Body carries an arbitrary
// typed payload (a TCP segment, a WTP PDU, ...) — the simulation transfers
// Go values instead of marshalled bytes, but accounts for wire cost through
// Bytes, which includes simulated header overhead.
//
// Ownership: packets obtained from Network.AllocPacket are recycled by the
// simulation once the send or delivery that carries them completes.
// Handlers and taps therefore must not keep a *Packet past their
// own return — copy the value or Clone it to retain. Body payloads may be
// retained freely; recycling only resets the Packet struct itself.
type Packet struct {
	Src   Addr
	Dst   Addr
	Proto Protocol
	// Bytes is the simulated on-the-wire size, used for serialization
	// delay and bit-error computations. It must be > 0.
	Bytes int
	// TTL is decremented at each forwarding hop; the packet is dropped at
	// zero.
	TTL int
	// Body is the typed payload.
	Body any
	// Sent is the virtual time the packet first entered the network,
	// stamped by the first interface that transmits it.
	Sent time.Duration

	// Trace is the causal span context the packet carries across hops,
	// relays and tunnels. Node.Send stamps it from the tracer's ambient
	// context when unset; Node.Deliver reinstates it as ambient on
	// arrival, so replies and forwarded copies inherit the originating
	// transaction automatically. Zero for unsampled traffic.
	Trace trace.Context

	// onWire records that the packet has been transmitted at least once;
	// nodes use it to distinguish forwarding from local origination.
	onWire bool

	// pooled marks packets owned by a Network free list; they are recycled
	// when the send or delivery carrying them completes. inPool guards
	// against double-free while the packet sits on the free list.
	pooled bool
	inPool bool
}

// Clone returns a shallow copy of the packet. Body is shared; transports
// that mutate segment state must copy it themselves. The copy is never
// pool-owned, so cloning is also how a handler or tap safely retains a
// packet past its own return.
func (p *Packet) Clone() *Packet {
	cp := *p
	cp.pooled = false
	cp.inPool = false
	return &cp
}

func (p *Packet) String() string {
	return fmt.Sprintf("%s %s->%s (%dB)", p.Proto, p.Src, p.Dst, p.Bytes)
}
