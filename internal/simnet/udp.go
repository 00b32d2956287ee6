package simnet

import "fmt"

// Simulated header overheads, charged on top of payload sizes.
const (
	IPHeaderBytes  = 20
	UDPHeaderBytes = IPHeaderBytes + 8
	TCPHeaderBytes = IPHeaderBytes + 20
)

// DatagramHandler consumes datagrams delivered to a bound port.
type DatagramHandler func(from Addr, body any, bytes int)

// UDP is a per-node datagram demultiplexer: the simulated equivalent of the
// UDP stack. WTP (the WAP transaction layer) and Mobile IP registration run
// over it.
type UDP struct {
	node  *Node
	ports map[Port]DatagramHandler
	next  Port
}

// UDPOf returns the node's datagram stack, creating and binding it on first
// use.
func UDPOf(nd *Node) *UDP {
	if nd.udp == nil {
		u := &UDP{node: nd, ports: make(map[Port]DatagramHandler), next: 49152}
		nd.udp = u
		nd.Bind(ProtoUDP, u.deliver)
	}
	return nd.udp
}

// Listen binds a handler to a fixed port. It returns an error if the port
// is taken.
func (u *UDP) Listen(port Port, h DatagramHandler) error {
	if _, ok := u.ports[port]; ok {
		return fmt.Errorf("udp: port %d in use on %s", port, u.node)
	}
	u.ports[port] = h
	return nil
}

// ListenAny binds a handler to a fresh ephemeral port and returns it.
func (u *UDP) ListenAny(h DatagramHandler) Port {
	for {
		u.next++
		if u.next == 0 {
			u.next = 49152
		}
		if _, ok := u.ports[u.next]; !ok {
			u.ports[u.next] = h
			return u.next
		}
	}
}

// Close releases a bound port.
func (u *UDP) Close(port Port) { delete(u.ports, port) }

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
	h, ok := u.ports[p.Dst.Port]
	if !ok {
		u.node.Drop(p, "no-port")
		return
	}
	h(p.Src, p.Body, p.Bytes-UDPHeaderBytes)
}
