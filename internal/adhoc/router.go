package adhoc

import (
	"errors"
	"time"

	"mcommerce/internal/simnet"
)

// Port is the ad hoc routing datagram port (AODV's registered port).
const Port simnet.Port = 654

// Errors reported through Send callbacks.
var (
	// ErrNoRoute reports a failed route discovery.
	ErrNoRoute = errors.New("adhoc: no route to destination")
)

// Router timing and limits.
const (
	// routeLifetime is how long an unused route stays valid.
	routeLifetime = 30 * time.Second
	// discoveryTimeout bounds one RREQ round.
	discoveryTimeout = 2 * time.Second
	// discoveryRetries is how many RREQ rounds to attempt.
	discoveryRetries = 2
	// maxHops bounds flood depth and path length.
	maxHops = 16
)

// Stats counts router activity.
type Stats struct {
	RREQsSent      uint64
	RREQsForwarded uint64
	RREPsSent      uint64
	DataForwarded  uint64
	DataDelivered  uint64
	Discoveries    uint64
	FailedRoutes   uint64
}

// Wire messages (all ride UDP port 654).

type rreq struct {
	Origin simnet.NodeID
	Dst    simnet.NodeID
	ID     uint64 // per-origin flood id
	Hops   int
}

type rrep struct {
	Origin simnet.NodeID // the requester (reply travels toward it)
	Dst    simnet.NodeID // the discovered destination
	Hops   int
}

type dataMsg struct {
	Dst   simnet.NodeID // final destination
	Inner *simnet.Packet
	Hops  int
}

const ctrlBytes = 24

type routeEntry struct {
	nextHop simnet.NodeID
	hops    int
	expires time.Duration
}

type floodKey struct {
	origin simnet.NodeID
	id     uint64
}

type pendingSend struct {
	pkt  *simnet.Packet
	done func(error)
}

type discovery struct {
	queue   []pendingSend
	retries int
	timer   simnet.Timer
}

// Router runs the ad hoc protocol on one station's node. All stations in
// the mesh create one.
type Router struct {
	node  *simnet.Node
	radio *simnet.Iface

	routes      map[simnet.NodeID]*routeEntry
	seen        map[floodKey]bool
	discoveries map[simnet.NodeID]*discovery
	nextFloodID uint64

	stats Stats
}

// NewRouter attaches an ad hoc router to a station node; radio is the
// node's ad hoc radio interface, on which the router transmits its
// signalling and relayed frames directly.
func NewRouter(node *simnet.Node, radio *simnet.Iface) (*Router, error) {
	r := &Router{
		node:        node,
		radio:       radio,
		routes:      make(map[simnet.NodeID]*routeEntry),
		seen:        make(map[floodKey]bool),
		discoveries: make(map[simnet.NodeID]*discovery),
	}
	if err := simnet.UDPOf(node).Listen(Port, r.deliver); err != nil {
		return nil, err
	}
	return r, nil
}

// meshIface is a virtual medium: packets the node routes to it are handed
// to the ad hoc router, so ordinary protocols (TCP, application datagrams)
// ride the mesh transparently.
type meshIface struct {
	router *Router
}

var _ simnet.Medium = (*meshIface)(nil)

// Transmit implements simnet.Medium.
func (m *meshIface) Transmit(_ *simnet.Iface, p *simnet.Packet) {
	m.router.Send(p.Clone(), nil)
}

// EnableTransparentForwarding attaches a virtual mesh interface and makes
// it the node's default route: every packet the node originates is routed
// over the mesh, so unmodified transports work multi-hop. The router's own
// frames bypass it (they transmit on the radio directly).
func (r *Router) EnableTransparentForwarding() *simnet.Iface {
	ifc := r.node.AddIface("mesh", &meshIface{router: r})
	r.node.SetDefaultRoute(ifc)
	return ifc
}

// Stats returns a snapshot of the router's counters.
func (r *Router) Stats() Stats { return r.stats }

func (r *Router) now() time.Duration { return r.node.Sched().Now() }

func (r *Router) liveRoute(dst simnet.NodeID) *routeEntry {
	e, ok := r.routes[dst]
	if !ok {
		return nil
	}
	if r.now() >= e.expires {
		delete(r.routes, dst)
		return nil
	}
	return e
}

// learn installs/refreshes a route if it is news (shorter or absent).
func (r *Router) learn(dst, nextHop simnet.NodeID, hops int) {
	if dst == r.node.ID {
		return
	}
	e := r.liveRoute(dst)
	if e == nil || hops <= e.hops {
		r.routes[dst] = &routeEntry{nextHop: nextHop, hops: hops, expires: r.now() + routeLifetime}
	}
}

// Send delivers a packet to dst over the mesh, running route discovery if
// needed. The packet's Dst must name the final destination; its Proto and
// Body are untouched and dispatch normally at the target node. done
// (optional) reports ErrNoRoute when discovery fails; nil means the packet
// was forwarded (delivery itself is best-effort, as on any radio).
func (r *Router) Send(pkt *simnet.Packet, done func(error)) {
	if pkt.Dst.Node == r.node.ID {
		r.node.Deliver(pkt, nil)
		if done != nil {
			done(nil)
		}
		return
	}
	if e := r.liveRoute(pkt.Dst.Node); e != nil {
		r.forwardData(&dataMsg{Dst: pkt.Dst.Node, Inner: pkt, Hops: 0}, e)
		if done != nil {
			done(nil)
		}
		return
	}
	r.discover(pkt.Dst.Node, pendingSend{pkt: pkt, done: done})
}

// discover starts (or joins) a route discovery for dst.
func (r *Router) discover(dst simnet.NodeID, ps pendingSend) {
	d, running := r.discoveries[dst]
	if !running {
		d = &discovery{}
		r.discoveries[dst] = d
		r.stats.Discoveries++
		r.flood(dst)
		r.armDiscoveryTimer(dst, d)
	}
	d.queue = append(d.queue, ps)
}

func (r *Router) armDiscoveryTimer(dst simnet.NodeID, d *discovery) {
	d.timer = r.node.Sched().After(discoveryTimeout, func() {
		if r.liveRoute(dst) != nil {
			return // resolved concurrently
		}
		d.retries++
		if d.retries >= discoveryRetries {
			delete(r.discoveries, dst)
			r.stats.FailedRoutes++
			for _, ps := range d.queue {
				if ps.done != nil {
					ps.done(ErrNoRoute)
				}
			}
			return
		}
		r.flood(dst)
		r.armDiscoveryTimer(dst, d)
	})
}

// flood broadcasts a fresh RREQ.
func (r *Router) flood(dst simnet.NodeID) {
	r.nextFloodID++
	req := &rreq{Origin: r.node.ID, Dst: dst, ID: r.nextFloodID, Hops: 0}
	r.markSeen(floodKey{origin: req.Origin, id: req.ID})
	r.stats.RREQsSent++
	r.broadcast(req)
}

// markSeen records a flood id for duplicate suppression and reclaims the
// entry once the flood has died out (bounding the map on long runs).
func (r *Router) markSeen(key floodKey) {
	r.seen[key] = true
	r.node.Sched().After(4*discoveryTimeout, func() {
		delete(r.seen, key)
	})
}

// broadcast and unicast transmit on the radio directly: the router's own
// frames must not be routed (they ARE the routing).
func (r *Router) broadcast(body any) {
	r.radio.Send(&simnet.Packet{
		Src:   simnet.Addr{Node: r.node.ID, Port: Port},
		Dst:   simnet.Addr{Node: simnet.Broadcast, Port: Port},
		Proto: simnet.ProtoUDP,
		Bytes: ctrlBytes + simnet.UDPHeaderBytes,
		TTL:   simnet.DefaultTTL,
		Body:  body,
	})
}

func (r *Router) unicast(to simnet.NodeID, body any, bytes int) {
	r.radio.Send(&simnet.Packet{
		Src:   simnet.Addr{Node: r.node.ID, Port: Port},
		Dst:   simnet.Addr{Node: to, Port: Port},
		Proto: simnet.ProtoUDP,
		Bytes: bytes + simnet.UDPHeaderBytes,
		TTL:   simnet.DefaultTTL,
		Body:  body,
	})
}

// deliver dispatches incoming protocol messages.
func (r *Router) deliver(_ simnet.Port, from simnet.Addr, body any, _ int) {
	switch m := body.(type) {
	case *rreq:
		r.onRREQ(from.Node, m)
	case *rrep:
		r.onRREP(from.Node, m)
	case *dataMsg:
		r.onData(m)
	}
}

func (r *Router) onRREQ(prevHop simnet.NodeID, m *rreq) {
	key := floodKey{origin: m.Origin, id: m.ID}
	if r.seen[key] {
		return
	}
	r.markSeen(key)
	// Reverse route to the origin through the node we heard the flood
	// from.
	r.learn(m.Origin, prevHop, m.Hops+1)
	if m.Dst == r.node.ID {
		// We are the destination: answer along the reverse path.
		r.stats.RREPsSent++
		r.unicast(prevHop, &rrep{Origin: m.Origin, Dst: m.Dst, Hops: 0}, ctrlBytes)
		return
	}
	if m.Hops+1 >= maxHops {
		return
	}
	fwd := *m
	fwd.Hops++
	r.stats.RREQsForwarded++
	r.broadcast(&fwd)
}

func (r *Router) onRREP(prevHop simnet.NodeID, m *rrep) {
	// Forward route to the discovered destination through the sender.
	r.learn(m.Dst, prevHop, m.Hops+1)
	if m.Origin == r.node.ID {
		// Discovery complete: drain the queue.
		if d, ok := r.discoveries[m.Dst]; ok {
			delete(r.discoveries, m.Dst)
			d.timer.Cancel()
			e := r.liveRoute(m.Dst)
			for _, ps := range d.queue {
				if e == nil {
					if ps.done != nil {
						ps.done(ErrNoRoute)
					}
					continue
				}
				r.forwardData(&dataMsg{Dst: m.Dst, Inner: ps.pkt, Hops: 0}, e)
				if ps.done != nil {
					ps.done(nil)
				}
			}
		}
		return
	}
	// Relay toward the origin along the reverse route.
	e := r.liveRoute(m.Origin)
	if e == nil {
		return
	}
	fwd := *m
	fwd.Hops++
	r.unicast(e.nextHop, &fwd, ctrlBytes)
}

// forwardData ships a data message to the route's next hop.
func (r *Router) forwardData(m *dataMsg, e *routeEntry) {
	r.unicast(e.nextHop, m, m.Inner.Bytes+ctrlBytes)
}

func (r *Router) onData(m *dataMsg) {
	if m.Dst == r.node.ID {
		r.stats.DataDelivered++
		inner := m.Inner.Clone()
		inner.TTL = simnet.DefaultTTL
		r.node.Deliver(inner, nil)
		return
	}
	if m.Hops+1 >= maxHops {
		return
	}
	e := r.liveRoute(m.Dst)
	if e == nil {
		return // route expired mid-path; the origin will rediscover
	}
	fwd := &dataMsg{Dst: m.Dst, Inner: m.Inner, Hops: m.Hops + 1}
	r.stats.DataForwarded++
	r.unicast(e.nextHop, fwd, m.Inner.Bytes+ctrlBytes)
}
