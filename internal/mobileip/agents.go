package mobileip

import (
	"time"

	"mcommerce/internal/simnet"
)

// Binding is a home agent's record of a roaming mobile.
type Binding struct {
	Mobile    simnet.NodeID
	CareOf    simnet.Addr
	ExpiresAt time.Duration // virtual time
}

// HomeAgentStats counts a home agent's activity.
type HomeAgentStats struct {
	Registrations uint64
	AuthFailures  uint64
	Tunneled      uint64 // datagrams encapsulated toward care-of addresses
	TunneledBytes uint64
}

// HomeAgent intercepts datagrams for away-from-home mobiles on the home
// subnet router and tunnels them to the registered care-of address.
type HomeAgent struct {
	node *simnet.Node
	// AuthKey, when non-nil, is the mobile-home security association: all
	// registration requests must carry a valid HMAC.
	authKey  []byte
	bindings map[simnet.NodeID]*Binding

	stats HomeAgentStats
}

// NewHomeAgent installs a home agent on the home subnet's router node.
// authKey may be nil to disable registration authentication.
func NewHomeAgent(node *simnet.Node, authKey []byte) *HomeAgent {
	ha := &HomeAgent{
		node:     node,
		authKey:  append([]byte(nil), authKey...),
		bindings: make(map[simnet.NodeID]*Binding),
	}
	node.Forwarding = true
	node.AddTap(ha.intercept)
	if err := simnet.UDPOf(node).Listen(MobileIPPort, ha.onRegistration); err != nil {
		// The port is fixed by the protocol; a prior binding is a
		// topology construction error.
		panic(err)
	}
	return ha
}

// Stats returns a snapshot of the agent's counters.
func (ha *HomeAgent) Stats() HomeAgentStats { return ha.stats }

// Binding returns the current binding for a mobile, if any and unexpired.
func (ha *HomeAgent) Binding(mobile simnet.NodeID) (Binding, bool) {
	b, ok := ha.bindings[mobile]
	if !ok || ha.node.Sched().Now() >= b.ExpiresAt {
		return Binding{}, false
	}
	return *b, true
}

// onRegistration handles a request relayed by a foreign agent.
func (ha *HomeAgent) onRegistration(_ simnet.Port, from simnet.Addr, body any, _ int) {
	req, ok := body.(*regRequest)
	if !ok {
		return
	}
	reply := &regReply{Mobile: req.Mobile, Seq: req.Seq}
	if !authOK(ha.authKey, req) {
		ha.stats.AuthFailures++
		reply.OK = false
	} else {
		ha.bindings[req.Mobile] = &Binding{
			Mobile:    req.Mobile,
			CareOf:    req.CareOf,
			ExpiresAt: ha.node.Sched().Now() + req.Lifetime,
		}
		ha.stats.Registrations++
		reply.OK = true
	}
	simnet.UDPOf(ha.node).Send(MobileIPPort, from, reply, regWireBytes)
}

// intercept tunnels datagrams for away mobiles. It runs as a forwarding
// tap: returning false consumes the packet.
func (ha *HomeAgent) intercept(p *simnet.Packet) bool {
	if p.Proto == simnet.ProtoTunnel || p.Dst.Node == ha.node.ID {
		return true
	}
	b, ok := ha.bindings[p.Dst.Node]
	if !ok {
		return true
	}
	if ha.node.Sched().Now() >= b.ExpiresAt {
		delete(ha.bindings, p.Dst.Node)
		return true
	}
	ha.stats.Tunneled++
	ha.stats.TunneledBytes += uint64(p.Bytes)
	// The encapsulation shows up in the packet's causal trace; the outer
	// packet inherits the span context via the ambient stamp in Send.
	ha.node.Network().Tracer.Annotate(p.Trace, "mip.tunnel")
	inner := p.Clone()
	ha.node.Send(&simnet.Packet{
		Src:   simnet.Addr{Node: ha.node.ID},
		Dst:   b.CareOf,
		Proto: simnet.ProtoTunnel,
		Bytes: inner.Bytes + simnet.IPHeaderBytes, // IP-in-IP overhead
		Body:  inner,
	})
	return false
}

// ForeignAgentStats counts a foreign agent's activity.
type ForeignAgentStats struct {
	Relayed      uint64 // registration requests relayed to home agents
	Decapsulated uint64 // tunneled datagrams delivered to visitors
}

// visitor tracks one mobile registered through this FA.
type visitor struct {
	home    simnet.Addr // home agent address
	replyTo simnet.Addr
}

// ForeignAgent terminates home-agent tunnels on a foreign subnet's router
// and relays registration signalling for visiting mobiles.
type ForeignAgent struct {
	node     *simnet.Node
	visitors map[simnet.NodeID]*visitor

	stats ForeignAgentStats
}

// NewForeignAgent installs a foreign agent on the foreign subnet's router
// node.
func NewForeignAgent(node *simnet.Node) *ForeignAgent {
	fa := &ForeignAgent{node: node, visitors: make(map[simnet.NodeID]*visitor)}
	node.Forwarding = true
	node.Bind(simnet.ProtoTunnel, fa.decapsulate)
	if err := simnet.UDPOf(node).Listen(MobileIPPort, fa.onSignal); err != nil {
		panic(err)
	}
	return fa
}

// Stats returns a snapshot of the agent's counters.
func (fa *ForeignAgent) Stats() ForeignAgentStats { return fa.stats }

// Addr returns the agent's care-of address.
func (fa *ForeignAgent) Addr() simnet.Addr {
	return simnet.Addr{Node: fa.node.ID, Port: MobileIPPort}
}

// onSignal handles both mobile requests (relay to HA) and HA replies
// (relay to mobile).
func (fa *ForeignAgent) onSignal(_ simnet.Port, from simnet.Addr, body any, _ int) {
	switch m := body.(type) {
	case *regRequest:
		// Fill in our address as the care-of address and relay home.
		req := *m
		req.CareOf = fa.Addr()
		fa.visitors[req.Mobile] = &visitor{home: req.Home, replyTo: from}
		fa.stats.Relayed++
		simnet.UDPOf(fa.node).Send(MobileIPPort, req.Home, &req, regWireBytes)
	case *regReply:
		v, ok := fa.visitors[m.Mobile]
		if !ok {
			return
		}
		if !m.OK {
			delete(fa.visitors, m.Mobile)
		}
		simnet.UDPOf(fa.node).Send(MobileIPPort, v.replyTo, m, regWireBytes)
	}
}

// decapsulate unwraps a tunneled datagram and forwards the inner packet to
// the visiting mobile over the local subnet.
func (fa *ForeignAgent) decapsulate(p *simnet.Packet) {
	inner, ok := p.Body.(*simnet.Packet)
	if !ok {
		fa.node.Drop(p, "bad-tunnel-payload")
		return
	}
	fa.stats.Decapsulated++
	out := inner.Clone()
	out.TTL = simnet.DefaultTTL
	fa.node.Network().Tracer.Annotate(out.Trace, "mip.decap")
	if via := fa.node.RouteTo(out.Dst.Node); via != nil {
		via.Send(out)
		return
	}
	fa.node.Drop(out, "no-visitor-route")
}
