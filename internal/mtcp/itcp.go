package mtcp

import (
	"mcommerce/internal/metrics"
	"mcommerce/internal/simnet"
)

// RelayStats counts a split-connection relay's activity.
type RelayStats struct {
	Accepted       uint64 // wireless-side connections accepted
	BytesToFixed   uint64 // relayed mobile -> fixed
	BytesToMobile  uint64 // relayed fixed -> mobile
	WirelessErrors uint64 // wireless legs that closed with an error
	WiredErrors    uint64 // wired legs that closed with an error
}

// Relay is the indirect-TCP split connection of Yavatkar & Bhagawat [16]:
// it terminates the mobile's TCP at the wireless gateway and opens a second
// TCP connection over the wired path, so that "the path between the mobile
// node and the fixed node [splits] into two separate sub-paths: one over
// the wireless links and the other over the wired links". Wireless losses
// then shrink only the short wireless leg's congestion window; the wired
// leg keeps its window open, which "limits the TCP performance degradation"
// end to end.
//
// The relay listens on the gateway and forwards every accepted connection
// to a fixed target address. Each leg runs its own Options, so the wireless
// leg can use a tighter RTO.
type Relay struct {
	stack  *Stack
	target simnet.Addr

	stats RelayStats
}

// NewRelay starts a split-connection relay on the gateway's stack:
// connections accepted on listenPort are bridged to target. wirelessOpts
// configures the accepted (wireless) legs, wiredOpts the dialed (wired)
// legs.
func NewRelay(stack *Stack, listenPort simnet.Port, target simnet.Addr, wirelessOpts, wiredOpts Options) (*Relay, error) {
	r := &Relay{stack: stack, target: target}
	sc := stack.node.Network().Metrics.Instance("mtcp.relay." + metrics.Sanitize(stack.node.Name))
	sc.AliasCounter("accepted", &r.stats.Accepted)
	sc.AliasCounter("bytes_to_fixed", &r.stats.BytesToFixed)
	sc.AliasCounter("bytes_to_mobile", &r.stats.BytesToMobile)
	sc.AliasCounter("wireless_errors", &r.stats.WirelessErrors)
	sc.AliasCounter("wired_errors", &r.stats.WiredErrors)
	err := stack.Listen(listenPort, wirelessOpts, func(mobile *Conn) {
		r.stats.Accepted++
		r.bridge(mobile, wiredOpts)
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Stats returns a snapshot of the relay's counters.
func (r *Relay) Stats() RelayStats { return r.stats }

// bridge pipes one wireless connection to a fresh wired connection,
// propagating data, half-closes and aborts in both directions.
func (r *Relay) bridge(mobile *Conn, wiredOpts Options) {
	var pendingToFixed []byte
	var fixed *Conn
	mobileEOF := false

	mobile.OnData(func(b []byte) {
		r.stats.BytesToFixed += uint64(len(b))
		if fixed == nil {
			pendingToFixed = append(pendingToFixed, b...)
			return
		}
		fixed.Send(b)
	})
	mobile.OnEOF(func() {
		mobileEOF = true
		if fixed != nil {
			fixed.Close()
		}
	})
	mobile.OnClose(func(err error) {
		if err != nil {
			r.stats.WirelessErrors++
			if fixed != nil {
				fixed.Abort()
			}
		}
	})

	r.stack.Dial(r.target, wiredOpts, func(c *Conn, err error) {
		if err != nil {
			r.stats.WiredErrors++
			mobile.Abort()
			return
		}
		fixed = c
		if len(pendingToFixed) > 0 {
			fixed.Send(pendingToFixed)
			pendingToFixed = nil
		}
		fixed.OnData(func(b []byte) {
			r.stats.BytesToMobile += uint64(len(b))
			mobile.Send(b)
		})
		fixed.OnEOF(func() { mobile.Close() })
		fixed.OnClose(func(err error) {
			if err != nil {
				r.stats.WiredErrors++
				mobile.Abort()
			}
		})
		if mobileEOF {
			fixed.Close()
		}
	})
}
