package simnet

import "fmt"

// Simulated header overheads, charged on top of payload sizes.
const (
	IPHeaderBytes  = 20
	UDPHeaderBytes = IPHeaderBytes + 8
	TCPHeaderBytes = IPHeaderBytes + 20
)

// DatagramHandler consumes a datagram delivered to the bound port to. A
// handler bound on many ports (a whole station population) tells its
// stations apart by to, so it needs no closure per port.
type DatagramHandler func(to Port, from Addr, body any, bytes int)

// UDP is a per-node datagram demultiplexer: the simulated equivalent of the
// UDP stack. WTP (the WAP transaction layer) and Mobile IP registration run
// over it. Its port table is paged: 256 pages of 256 handlers, indexed by
// the port's high then low byte, a page allocated on the first bind inside
// it. A nil handler means the port is unbound, so demux is two loads.
type UDP struct {
	node  *Node
	ports [256]*[256]DatagramHandler
	next  Port
}

// UDPOf returns the node's datagram stack, creating and binding it on first
// use.
func UDPOf(nd *Node) *UDP {
	if nd.udp == nil {
		u := &UDP{node: nd, next: 49152}
		nd.udp = u
		nd.Bind(ProtoUDP, u.deliver)
	}
	return nd.udp
}

// handler returns the handler bound on port, or nil.
func (u *UDP) handler(port Port) DatagramHandler {
	if pg := u.ports[port>>8]; pg != nil {
		return pg[port&255]
	}
	return nil
}

// bind stores h on port, allocating the port's page if needed.
func (u *UDP) bind(port Port, h DatagramHandler) {
	pg := u.ports[port>>8]
	if pg == nil {
		pg = new([256]DatagramHandler)
		u.ports[port>>8] = pg
	}
	pg[port&255] = h
}

// Listen binds a handler to a fixed port. It returns an error if the port
// is taken or h is nil.
func (u *UDP) Listen(port Port, h DatagramHandler) error {
	if h == nil {
		return fmt.Errorf("udp: nil handler for port %d on %s", port, u.node)
	}
	if u.handler(port) != nil {
		return fmt.Errorf("udp: port %d in use on %s", port, u.node)
	}
	u.bind(port, h)
	return nil
}

// ListenAny binds a handler to a fresh ephemeral port (49152-65535) and
// returns it. It panics when h is nil or every ephemeral port on the node
// is bound.
func (u *UDP) ListenAny(h DatagramHandler) Port {
	if h == nil {
		panic(fmt.Sprintf("udp: nil handler for an ephemeral port on %s", u.node))
	}
	for range 65536 - 49152 {
		u.next++
		if u.next == 0 {
			u.next = 49152
		}
		if u.handler(u.next) == nil {
			u.bind(u.next, h)
			return u.next
		}
	}
	panic(fmt.Sprintf("udp: every ephemeral port 49152-65535 is bound on %s", u.node))
}

// Send transmits a datagram from the given local port. bytes is the payload
// size; UDP/IP header overhead is added automatically. The packet travels
// through the network's pool, so sending allocates nothing beyond what the
// caller's body payload needs.
func (u *UDP) Send(from Port, to Addr, body any, bytes int) {
	p := u.node.net.AllocPacket()
	p.Src = Addr{Node: u.node.ID, Port: from}
	p.Dst = to
	p.Proto = ProtoUDP
	p.Bytes = bytes + UDPHeaderBytes
	p.Body = body
	u.node.Send(p)
}

func (u *UDP) deliver(p *Packet) {
	h := u.handler(p.Dst.Port)
	if h == nil {
		u.node.Drop(p, "no-port")
		return
	}
	h(p.Dst.Port, p.Src, p.Body, p.Bytes-UDPHeaderBytes)
}
