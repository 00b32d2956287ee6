package mtcp

import "time"

// Congestion-control algorithm names accepted by Options.CC.
const (
	CCReno  = "reno"
	CCCubic = "cubic"
)

// Options tunes a connection. The zero value is usable: every field falls
// back to its default. Split-connection deployments (Relay) typically use
// distinct options on the wired and wireless legs.
type Options struct {
	// RcvWnd is the advertised receive window in bytes. Default 256 KiB.
	RcvWnd int
	// RTOInitial is the retransmission timeout before any RTT sample.
	// Default 1s.
	RTOInitial time.Duration
	// RTOMin bounds the computed RTO from below. Default 200ms.
	RTOMin time.Duration
	// NewReno enables NewReno partial-ACK recovery (RFC 6582): the sender
	// stays in fast recovery until the entire window outstanding at the
	// loss is acknowledged, retransmitting one segment per partial ACK.
	// Classic Reno (the default) exits recovery on the first new ACK and
	// needs a timeout when several segments from one window are lost.
	// The flag applies to either CC choice (it governs the recovery
	// state machine, not window evolution).
	NewReno bool
	// CC selects the congestion-control algorithm: CCReno (default) or
	// CCCubic. An unknown name panics at connection creation.
	CC string

	// issOverride pins the initial send sequence number instead of
	// drawing it from the scheduler RNG. Test hook (sequence-number
	// wraparound coverage); nil means random.
	issOverride *uint32
}

// DefaultOptions returns the defaults used when Options fields are zero.
func DefaultOptions() Options {
	return Options{
		RcvWnd:     256 << 10,
		RTOInitial: time.Second,
		RTOMin:     200 * time.Millisecond,
		CC:         CCReno,
	}
}

// Fixed connection parameters.
const (
	// mss is the maximum segment payload in bytes.
	mss = 1400
	// maxRetries is the number of consecutive timeouts on one segment
	// before the connection aborts.
	maxRetries = 12
	// msl is the maximum segment lifetime; TIME_WAIT holds the
	// connection identity for 2*msl before the port becomes reusable.
	// It is scaled down from the RFC 793 2min to simulation timescales;
	// still several RTOs, so a retransmitted FIN from the peer is always
	// re-ACKed rather than RST.
	msl = 2 * time.Second
	// initialCwndSegs is the initial congestion window in segments.
	initialCwndSegs = 2
	// rtoMax bounds the backed-off RTO from above.
	rtoMax = 30 * time.Second
	// dupAckThreshold is the duplicate-ACK count that triggers fast
	// retransmit.
	dupAckThreshold = 3
)

// withDefaults fills zero fields from DefaultOptions.
func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.RcvWnd <= 0 {
		o.RcvWnd = d.RcvWnd
	}
	if o.RTOInitial <= 0 {
		o.RTOInitial = d.RTOInitial
	}
	if o.RTOMin <= 0 {
		o.RTOMin = d.RTOMin
	}
	if o.CC == "" {
		o.CC = d.CC
	}
	return o
}

// Stats is a connection's running counters, retrievable via Conn.Stats.
type Stats struct {
	BytesSent        uint64 // payload bytes handed to the network (incl. retransmits)
	BytesAcked       uint64 // payload bytes cumulatively acknowledged
	BytesReceived    uint64 // in-order payload bytes delivered to the app
	SegmentsSent     uint64
	SegmentsReceived uint64
	Retransmits      uint64 // segments re-sent for any reason
	Timeouts         uint64 // RTO expirations
	FastRetransmits  uint64 // fast-retransmit events (3 dupacks or SignalReconnect)
	DupAcksSent      uint64
	SRTT             time.Duration // smoothed RTT estimate
	RTO              time.Duration // current retransmission timeout
}
