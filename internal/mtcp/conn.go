package mtcp

import (
	"slices"
	"time"

	"mcommerce/internal/simnet"
	"mcommerce/internal/trace"
)

// Conn is one end of a simulated TCP connection. All methods must be
// called from the simulation goroutine (i.e. from event callbacks or
// before the scheduler runs).
//
// Inbound segments are dispatched through statefn, the handler for the
// connection's current state: setState swaps the handler as the
// connection walks the RFC 793 diagram (SYN_SENT → ESTABLISHED →
// FIN_WAIT_1 → … → TIME_WAIT).
type Conn struct {
	stack     *Stack
	localPort simnet.Port
	remote    simnet.Addr
	opts      Options
	state     connState
	statefn   statefn

	// ctx is the causal span context every segment of this connection is
	// stamped with — essential for timer-driven sends (RTO retransmits),
	// which fire with no ambient context. Dialed connections own a
	// dedicated transport span (ownSpan) finished at teardown; accepted
	// connections inherit the context of the SYN that created them.
	ctx     trace.Context
	ownSpan bool

	// Callbacks.
	onConnect func(*Conn, error) // Dial completion
	acceptFn  func(*Conn)        // listener accept
	onData    func([]byte)
	onEOF     func()
	onClose   func(error)
	closed    bool // onClose delivered
	eofFired  bool // onEOF delivered

	// Send state. sndBuf holds the stream suffix from bufBase onward
	// (acked prefix included until a quiescent trim); all sequence
	// variables are 32-bit and wrap.
	iss     uint32
	sndBuf  []byte
	bufBase uint32 // stream sequence of sndBuf[0]
	sndUna  uint32
	sndNxt  uint32
	peerWnd int

	// Congestion control: the algorithm owns the window, the connection
	// owns recovery orchestration.
	cc         CongestionControl
	dupAcks    int
	inRecovery bool
	// recover is the NewReno recovery point: the highest sequence
	// outstanding when fast retransmit fired; recovery ends only once
	// cumulative ACKs pass it.
	recover  uint32
	lastCwnd int // last window reported to the stack's cwnd gauge

	// RTT estimation (RFC 6298 SRTT/RTTVAR, Karn's rule).
	srtt     time.Duration
	rttvar   time.Duration
	rto      time.Duration
	rttValid bool
	rttSeq   uint32
	rttStart time.Duration

	// Retransmission / 2MSL timer.
	rtoTimer simnet.Timer
	retries  int

	// maxSent is the highest sequence ever transmitted, used to classify
	// go-back-N sends as retransmissions.
	maxSent uint32

	// Close handshake.
	closeReq bool
	finSent  bool
	finSeq   uint32

	// Receive state.
	irs     uint32
	rcvNxt  uint32
	ooo     []*Segment // out-of-order segments by sequence number; nil until one arrives
	rcvdFin bool

	stats Stats
}

func newConn(s *Stack, local simnet.Port, remote simnet.Addr, opts Options) *Conn {
	c := &Conn{
		stack:     s,
		localPort: local,
		remote:    remote,
		opts:      opts,
		state:     stateClosed,
		statefn:   stateHandlers[stateClosed],
		ctx:       s.node.Network().Tracer.Current(),
		peerWnd:   mss * initialCwndSegs,
		cc:        newCongestionControl(opts),
		rto:       opts.RTOInitial,
	}
	c.cc.Init(c.sched().Now())
	c.lastCwnd = c.cc.Cwnd()
	s.m.cwnd.Add(int64(c.lastCwnd))
	return c
}

// LocalAddr returns the connection's local address.
func (c *Conn) LocalAddr() simnet.Addr {
	return simnet.Addr{Node: c.stack.node.ID, Port: c.localPort}
}

// RemoteAddr returns the peer's address.
func (c *Conn) RemoteAddr() simnet.Addr { return c.remote }

// open reports whether the handshake has completed and the connection
// has not finished closing (TIME_WAIT and CLOSED are "not open"; the
// half-close states are, since data can still move).
func (c *Conn) open() bool {
	switch c.state {
	case stateEstablished, stateFinWait1, stateFinWait2, stateClosing, stateCloseWait, stateLastAck:
		return true
	}
	return false
}

// Established reports whether the three-way handshake has completed and
// the connection has not closed.
func (c *Conn) Established() bool { return c.open() }

// Stats returns a snapshot of the connection's counters.
func (c *Conn) Stats() Stats {
	st := c.stats
	st.SRTT = c.srtt
	st.RTO = c.rto
	return st
}

// CCName returns the name of the congestion-control algorithm driving
// the connection.
func (c *Conn) CCName() string { return c.cc.Name() }

// OnData registers the in-order data delivery callback. Payload slices are
// owned by the connection; the callback must copy data it retains.
func (c *Conn) OnData(fn func([]byte)) { c.onData = fn }

// OnEOF registers the half-close callback: it fires once, when the peer's
// FIN arrives after all of the peer's data has been delivered. The local
// direction may continue sending afterwards.
func (c *Conn) OnEOF(fn func()) {
	c.onEOF = fn
	if c.rcvdFin && !c.eofFired {
		c.eofFired = true
		fn()
	}
}

// OnClose registers the close callback: nil error for orderly close, ErrReset
// or ErrTimeout otherwise. It fires at most once. From the application's
// view TIME_WAIT is closed: only the protocol identity lingers.
func (c *Conn) OnClose(fn func(error)) {
	c.onClose = fn
	if (c.state == stateClosed || c.state == stateTimeWait) && !c.closed {
		c.closed = true
		fn(nil)
	}
}

// --- state transitions ---

// setState moves the connection to s: it swaps the segment handler,
// bumps the per-state entry counter and annotates the connection span.
func (c *Conn) setState(s connState) {
	if c.state == s {
		return
	}
	c.state = s
	c.statefn = stateHandlers[s]
	c.stack.m.stateEntries[s].Inc()
	c.stack.node.Network().Tracer.Annotate(c.ctx, stateAnnotations[s])
}

// --- connection establishment ---

func (c *Conn) chooseISS() uint32 {
	if c.opts.issOverride != nil {
		return *c.opts.issOverride
	}
	return uint32(c.sched().Rand().Int63n(1 << 30))
}

func (c *Conn) startConnect() {
	c.setState(stateSynSent)
	c.iss = c.chooseISS()
	c.sndUna = c.iss
	c.sndNxt = c.iss + 1
	c.maxSent = c.sndNxt
	c.bufBase = c.sndNxt
	c.sendSYN()
	c.restartRTO()
}

func (c *Conn) startAccept(syn *Segment) {
	c.setState(stateSynRcvd)
	c.irs = syn.Seq
	c.rcvNxt = syn.Seq + 1
	c.peerWnd = syn.Wnd
	c.iss = c.chooseISS()
	c.sndUna = c.iss
	c.sndNxt = c.iss + 1
	c.maxSent = c.sndNxt
	c.bufBase = c.sndNxt
	c.sendSYNACK()
	c.restartRTO()
}

// --- application API ---

// Send queues the concatenation of parts for transmission. The parts are
// copied into the send buffer, grown once for all of them, so a message
// sent as a head and a body segments exactly like one Send of the joined
// bytes. Sending on a closing or closed connection is a silent no-op;
// sending in CLOSE_WAIT (after the peer half-closed) is allowed until
// Close.
func (c *Conn) Send(parts ...[]byte) {
	n := 0
	for _, b := range parts {
		n += len(b)
	}
	if c.closeReq || n == 0 {
		return
	}
	switch c.state {
	case stateSynSent, stateSynRcvd, stateEstablished, stateCloseWait:
	default:
		return
	}
	c.sndBuf = slices.Grow(c.sndBuf, n)
	for _, b := range parts {
		c.sndBuf = append(c.sndBuf, b...)
	}
	if c.state == stateEstablished || c.state == stateCloseWait {
		c.trySend()
	}
}

// Close requests an orderly close: queued data is delivered first, then a
// FIN. The connection fully closes once both directions have finished.
func (c *Conn) Close() {
	if c.closeReq {
		return
	}
	switch c.state {
	case stateSynSent, stateSynRcvd, stateEstablished, stateCloseWait:
		c.closeReq = true
	default:
		return
	}
	if c.state == stateEstablished || c.state == stateCloseWait {
		c.trySend()
	}
}

// Abort resets the connection immediately, notifying the peer with RST.
func (c *Conn) Abort() {
	if c.state == stateClosed {
		return
	}
	c.sendRST()
	c.teardown(ErrReset)
}

// SignalReconnect implements the fast-retransmission-after-handoff scheme
// of Caceres & Iftode [2]: call it when the mobile's link-layer reports
// that a handoff completed. Acting as receiver, the connection immediately
// emits dupAckThreshold duplicate ACKs so the remote sender fast-retransmits
// instead of idling out its (possibly backed-off) RTO; acting as sender, it
// retransmits the oldest unacknowledged segment at once with a fresh timer.
func (c *Conn) SignalReconnect() {
	if !c.open() {
		return
	}
	// Receiver role: provoke the peer's fast retransmit. One extra
	// duplicate covers the case where the peer lost our latest
	// cumulative ACK in the blackout and consumes the first as new.
	for i := 0; i < dupAckThreshold+1; i++ {
		c.sendAck()
		c.stats.DupAcksSent++
		c.stack.m.dupAcksSent.Inc()
	}
	// Sender role: resume our own outstanding data without waiting.
	if c.sndNxt != c.sndUna {
		c.retries = 0
		c.rto = c.currentRTOBase()
		c.stats.FastRetransmits++
		c.stack.m.fastRetransmits.Inc()
		c.retransmitOldest()
		c.restartRTO()
	}
}

// --- segment transmission ---

func (c *Conn) sched() *simnet.Scheduler { return c.stack.node.Sched() }

// sendSeg transmits a first-time segment (span mtcp.seg.tx when the
// connection is traced).
func (c *Conn) sendSeg(seg *Segment) { c.transmit(seg, "mtcp.seg.tx") }

// sendSegRtx transmits a retransmission (span mtcp.seg.rtx).
func (c *Conn) sendSegRtx(seg *Segment) { c.transmit(seg, "mtcp.seg.rtx") }

func (c *Conn) transmit(seg *Segment, span string) {
	c.stats.SegmentsSent++
	c.stats.BytesSent += uint64(len(seg.Payload))
	c.stack.m.segmentsSent.Inc()
	c.stack.m.bytesSent.Add(uint64(len(seg.Payload)))
	if c.ctx.Sampled() {
		// Per-segment instant span: marks the tx on the connection's
		// span timeline without needing to track the matching delivery.
		tr := c.stack.node.Network().Tracer
		tr.Finish(tr.StartSpan(c.ctx, span, trace.LayerTransport))
	}
	c.stack.sendRaw(c.localPort, c.remote, seg, c.ctx)
}

func (c *Conn) sendAck() {
	seg := c.stack.allocSeg()
	seg.Flags = ACK
	seg.Seq = c.sndNxt
	seg.Ack = c.rcvNxt
	seg.Wnd = c.opts.RcvWnd
	c.sendSeg(seg)
}

func (c *Conn) sendSYN() {
	seg := c.stack.allocSeg()
	seg.Flags = SYN
	seg.Seq = c.iss
	seg.Wnd = c.opts.RcvWnd
	c.sendSeg(seg)
}

func (c *Conn) sendSYNACK() {
	seg := c.stack.allocSeg()
	seg.Flags = SYN | ACK
	seg.Seq = c.iss
	seg.Ack = c.rcvNxt
	seg.Wnd = c.opts.RcvWnd
	c.sendSeg(seg)
}

func (c *Conn) sendFINACK(rtx bool) {
	seg := c.stack.allocSeg()
	seg.Flags = FIN | ACK
	seg.Seq = c.finSeq
	seg.Ack = c.rcvNxt
	seg.Wnd = c.opts.RcvWnd
	if rtx {
		c.sendSegRtx(seg)
	} else {
		c.sendSeg(seg)
	}
}

func (c *Conn) sendRST() {
	seg := c.stack.allocSeg()
	seg.Flags = RST | ACK
	seg.Seq = c.sndNxt
	seg.Ack = c.rcvNxt
	c.sendSeg(seg)
}

// dataEnd is the stream sequence just past the last byte queued for
// sending (exclusive of any FIN).
func (c *Conn) dataEnd() uint32 { return c.bufBase + uint32(len(c.sndBuf)) }

// trySend transmits as much queued data as the congestion and peer windows
// allow, then a FIN if a close is pending and the buffer drained. Sending
// a first FIN advances the close state machine (ESTABLISHED → FIN_WAIT_1,
// CLOSE_WAIT → LAST_ACK).
func (c *Conn) trySend() {
	if c.state == stateClosed || c.state == stateTimeWait {
		return
	}
	for {
		inFlight := int(seqDiff(c.sndNxt, c.sndUna))
		wnd := c.cc.Cwnd()
		if c.peerWnd < wnd {
			wnd = c.peerWnd
		}
		avail := wnd - inFlight
		pending := int(seqDiff(c.dataEnd(), c.sndNxt))
		if pending <= 0 {
			break
		}
		if avail <= 0 {
			c.ensureRTO()
			return
		}
		n := pending
		if n > mss {
			n = mss
		}
		if n > avail {
			// Send a partial segment only if nothing is in flight
			// (avoid silly window syndrome in a simple way).
			if inFlight > 0 {
				c.ensureRTO()
				return
			}
			n = avail
		}
		off := int(c.sndNxt - c.bufBase)
		seg := c.stack.allocSeg()
		seg.Flags = ACK
		seg.Seq = c.sndNxt
		seg.Ack = c.rcvNxt
		seg.Wnd = c.opts.RcvWnd
		seg.Payload = c.sndBuf[off : off+n]
		rtx := seqLT(seg.Seq, c.maxSent)
		if !c.rttValid && !rtx {
			c.rttValid = true
			c.rttSeq = c.sndNxt
			c.rttStart = c.sched().Now()
		}
		if rtx {
			c.stats.Retransmits++
			c.stack.m.retransmits.Inc()
			c.stack.m.rtx.Inc()
		}
		c.sndNxt += uint32(n)
		if seqGT(c.sndNxt, c.maxSent) {
			c.maxSent = c.sndNxt
		}
		if rtx {
			c.sendSegRtx(seg)
		} else {
			c.sendSeg(seg)
		}
		c.ensureRTO()
	}
	if c.closeReq && !c.finSent && c.sndNxt == c.dataEnd() {
		c.finSent = true
		c.finSeq = c.sndNxt
		c.sendFINACK(false)
		c.sndNxt++
		if seqGT(c.sndNxt, c.maxSent) {
			c.maxSent = c.sndNxt
		}
		c.ensureRTO()
		switch c.state {
		case stateEstablished:
			c.setState(stateFinWait1)
		case stateCloseWait:
			c.setState(stateLastAck)
		}
	}
}

// retransmitOldest re-sends the segment starting at sndUna.
func (c *Conn) retransmitOldest() {
	c.stats.Retransmits++
	c.stack.m.retransmits.Inc()
	c.stack.m.rtx.Inc()
	// Karn's rule: a retransmitted sequence must not produce an RTT
	// sample.
	if c.rttValid && seqGE(c.rttSeq, c.sndUna) {
		c.rttValid = false
	}
	switch c.state {
	case stateSynSent:
		c.sendSYN()
		return
	case stateSynRcvd:
		c.sendSYNACK()
		return
	}
	if c.finSent && c.sndUna == c.finSeq {
		c.sendFINACK(true)
		return
	}
	n := int(seqDiff(c.dataEnd(), c.sndUna))
	if n <= 0 {
		return
	}
	if n > mss {
		n = mss
	}
	off := int(c.sndUna - c.bufBase)
	seg := c.stack.allocSeg()
	seg.Flags = ACK
	seg.Seq = c.sndUna
	seg.Ack = c.rcvNxt
	seg.Wnd = c.opts.RcvWnd
	seg.Payload = c.sndBuf[off : off+n]
	c.sendSegRtx(seg)
}

// sendProbe emits a one-byte zero-window probe (RFC 793 persist): the
// peer must answer with its current window, reopening flow when the
// window update that would have restarted us was lost.
func (c *Conn) sendProbe() {
	if int(seqDiff(c.dataEnd(), c.sndNxt)) <= 0 {
		return
	}
	off := int(c.sndNxt - c.bufBase)
	seg := c.stack.allocSeg()
	seg.Flags = ACK
	seg.Seq = c.sndNxt
	seg.Ack = c.rcvNxt
	seg.Wnd = c.opts.RcvWnd
	seg.Payload = c.sndBuf[off : off+1]
	c.sndNxt++
	if seqGT(c.sndNxt, c.maxSent) {
		c.maxSent = c.sndNxt
	}
	c.sendSeg(seg)
}

// --- timers ---

func (c *Conn) currentRTOBase() time.Duration {
	if c.srtt == 0 {
		return c.opts.RTOInitial
	}
	rto := c.srtt + 4*c.rttvar
	if rto < c.opts.RTOMin {
		rto = c.opts.RTOMin
	}
	if rto > rtoMax {
		rto = rtoMax
	}
	return rto
}

func (c *Conn) ensureRTO() {
	if !c.rtoTimer.Pending() {
		c.restartRTO()
	}
}

// connRTO / connTimeWait adapt timer callbacks to AfterCall, which takes
// a plain function plus argument: method values would allocate a closure
// per (re)arm, and the RTO timer re-arms on every ACK.
func connRTO(a any)      { a.(*Conn).onRTO() }
func connTimeWait(a any) { a.(*Conn).onTimeWaitExpired() }

func (c *Conn) restartRTO() {
	c.rtoTimer.Cancel()
	c.rtoTimer = c.sched().AfterCall(c.rto, connRTO, c)
}

func (c *Conn) stopRTO() {
	c.rtoTimer.Cancel()
}

func (c *Conn) onRTO() {
	if c.state == stateClosed || c.state == stateTimeWait {
		return
	}
	if c.sndUna == c.sndNxt && c.state == stateEstablished {
		// Nothing outstanding. If data is stalled behind a zero peer
		// window, probe it (a lost window update would otherwise
		// deadlock the flow); else the timer was stale.
		if c.peerWnd == 0 && int(seqDiff(c.dataEnd(), c.sndNxt)) > 0 {
			c.sendProbe()
			c.restartRTO()
		}
		return
	}
	c.stats.Timeouts++
	c.stack.m.timeouts.Inc()
	c.stack.m.rto.Inc()
	c.stack.node.Network().Tracer.Annotate(c.ctx, "tcp.rto")
	c.retries++
	if c.retries > maxRetries {
		err := ErrTimeout
		if c.state == stateSynSent && c.onConnect != nil {
			cb := c.onConnect
			c.onConnect = nil
			c.teardown(err)
			cb(nil, err)
			return
		}
		c.teardown(err)
		return
	}
	// Multiplicative decrease; exponential backoff.
	flight := int(seqDiff(c.sndNxt, c.sndUna))
	c.cc.OnTimeout(flight, c.sched().Now())
	c.syncCwnd()
	c.dupAcks = 0
	c.inRecovery = false
	c.rto *= 2
	if c.rto > rtoMax {
		c.rto = rtoMax
	}
	if c.open() {
		// Go-back-N: rewind the send pointer so the ACK clock
		// re-transmits everything from the loss onward as the window
		// reopens. Without this, a burst loss degenerates into one
		// segment per RTO. An unacknowledged FIN is withdrawn and
		// re-sent by trySend once the data drains again (the state,
		// already past the transition, is unaffected).
		c.rttValid = false
		if c.finSent && seqGE(c.finSeq, c.sndUna) {
			c.finSent = false
		}
		c.sndNxt = c.sndUna
		c.trySend()
	} else {
		c.retransmitOldest()
	}
	c.restartRTO()
}

// armTimeWait (re)starts the 2MSL TIME_WAIT clock.
func (c *Conn) armTimeWait() {
	c.rtoTimer.Cancel()
	c.rtoTimer = c.sched().AfterCall(2*msl, connTimeWait, c)
}

func (c *Conn) onTimeWaitExpired() {
	if c.state != stateTimeWait {
		return
	}
	c.teardown(nil)
}

// syncCwnd folds the congestion window's latest value into the stack's
// cwnd gauge (which tracks the sum over live connections) by delta.
func (c *Conn) syncCwnd() {
	if w := c.cc.Cwnd(); w != c.lastCwnd {
		c.stack.m.cwnd.Add(int64(w - c.lastCwnd))
		c.lastCwnd = w
	}
}

// --- reception: per-state handlers ---

// receive runs the common preamble (stats, RST) and dispatches the
// segment to the current state's handler.
func (c *Conn) receive(seg *Segment) {
	if c.state == stateClosed {
		return
	}
	c.stats.SegmentsReceived++
	c.stack.m.segmentsRcvd.Inc()
	if seg.Flags&RST != 0 {
		c.handleRST()
		return
	}
	c.statefn(c, seg)
}

func (c *Conn) handleRST() {
	if c.state == stateTimeWait {
		// Already closed for the application; the RST just releases the
		// 2MSL hold early.
		c.teardown(nil)
		return
	}
	err := ErrReset
	if c.state == stateSynSent && c.onConnect != nil {
		cb := c.onConnect
		c.onConnect = nil
		c.teardown(err)
		cb(nil, err)
		return
	}
	c.teardown(err)
}

// stDrop is the handler for states that never see segments through a
// Conn (CLOSED, LISTEN — the stack answers for those).
func (c *Conn) stDrop(*Segment) {}

func (c *Conn) stSynSent(seg *Segment) {
	switch {
	case seg.Flags&(SYN|ACK) == SYN|ACK && seg.Ack == c.sndNxt:
		c.irs = seg.Seq
		c.rcvNxt = seg.Seq + 1
		c.peerWnd = seg.Wnd
		c.sndUna = seg.Ack
		c.retries = 0
		c.stopRTO()
		c.setState(stateEstablished)
		c.sendAck()
		if cb := c.onConnect; cb != nil {
			c.onConnect = nil
			cb(c, nil)
		}
		c.trySend()
	case seg.Flags&SYN != 0 && seg.Flags&ACK == 0:
		// Simultaneous open (RFC 793 fig. 8): both ends dialed each
		// other. Acknowledge the peer's SYN and wait in SYN_RCVD for
		// the ACK of our own.
		c.irs = seg.Seq
		c.rcvNxt = seg.Seq + 1
		c.peerWnd = seg.Wnd
		c.setState(stateSynRcvd)
		c.sendSYNACK()
		c.restartRTO()
	}
}

func (c *Conn) stSynRcvd(seg *Segment) {
	if seg.Flags&SYN != 0 && seg.Flags&ACK == 0 {
		// Duplicate SYN: our SYN|ACK was lost; answer again without
		// waiting for the RTO.
		if seg.Seq == c.irs {
			c.sendSYNACK()
		}
		return
	}
	if seg.Flags&ACK == 0 || seg.Ack != c.sndNxt {
		return
	}
	// Plain ACK completes a passive open; SYN|ACK completes a
	// simultaneous open (the peer moved to SYN_RCVD too and its SYN|ACK
	// acknowledges our SYN).
	c.sndUna = seg.Ack
	c.peerWnd = seg.Wnd
	c.retries = 0
	c.stopRTO()
	c.setState(stateEstablished)
	if seg.Flags&SYN != 0 {
		c.sendAck()
	}
	if cb := c.acceptFn; cb != nil {
		c.acceptFn = nil
		cb(c)
	}
	if cb := c.onConnect; cb != nil {
		// Simultaneous open arrived through Dial.
		c.onConnect = nil
		cb(c, nil)
	}
	// Process any piggybacked payload, then push queued data.
	c.processAck(seg)
	if len(seg.Payload) > 0 || seg.Flags&FIN != 0 {
		c.processData(seg)
	}
	c.maybeAdvanceClose()
	c.trySend()
}

// stStream is the shared data-path body: ESTABLISHED and every
// half-close state process cumulative ACKs and in-order data the same
// way; maybeAdvanceClose applies the state-specific transitions.
func (c *Conn) stStream(seg *Segment) {
	if seg.Flags&ACK != 0 {
		c.processAck(seg)
	}
	if len(seg.Payload) > 0 || seg.Flags&FIN != 0 {
		c.processData(seg)
	}
	c.maybeAdvanceClose()
}

func (c *Conn) stEstablished(seg *Segment) { c.stStream(seg) }

// stFinWait serves FIN_WAIT_1 and FIN_WAIT_2: our FIN is out, the peer
// may still send data, and its FIN moves us toward TIME_WAIT.
func (c *Conn) stFinWait(seg *Segment) { c.stStream(seg) }

// stClosing: simultaneous close — both FINs seen, waiting for the ACK of
// ours. New data past the peer's FIN is a protocol violation.
func (c *Conn) stClosing(seg *Segment) {
	if c.dataPastFin(seg) {
		c.abortUnexpected()
		return
	}
	c.stStream(seg)
}

// stCloseWait: the peer half-closed; we may keep sending. Data beyond
// the peer's FIN sequence can only come from a broken peer: reset.
func (c *Conn) stCloseWait(seg *Segment) {
	if c.dataPastFin(seg) {
		c.abortUnexpected()
		return
	}
	c.stStream(seg)
}

func (c *Conn) stLastAck(seg *Segment) {
	if c.dataPastFin(seg) {
		c.abortUnexpected()
		return
	}
	c.stStream(seg)
}

// stTimeWait: re-ACK a retransmitted FIN (our final ACK was lost) and
// restart the 2MSL clock; everything else is a stale duplicate.
func (c *Conn) stTimeWait(seg *Segment) {
	if seg.Flags&FIN != 0 {
		c.sendAck()
		c.armTimeWait()
	}
}

// dataPastFin reports whether seg carries payload beyond the peer's FIN
// — impossible from a conforming peer, so the caller resets.
func (c *Conn) dataPastFin(seg *Segment) bool {
	if !c.rcvdFin || len(seg.Payload) == 0 {
		return false
	}
	return seqGT(seg.Seq+uint32(len(seg.Payload)), c.rcvNxt)
}

// abortUnexpected resets the connection in response to a segment that
// violates the protocol in the current state.
func (c *Conn) abortUnexpected() {
	c.stack.node.Network().Tracer.Annotate(c.ctx, "tcp.rst_unexpected")
	c.sendRST()
	c.teardown(ErrReset)
}

// maybeAdvanceClose applies the close-handshake transitions that depend
// on "our FIN is acknowledged" and "the peer's FIN arrived".
func (c *Conn) maybeAdvanceClose() {
	finAcked := c.finSent && seqGT(c.sndUna, c.finSeq)
	switch c.state {
	case stateEstablished:
		if c.rcvdFin {
			c.setState(stateCloseWait)
		}
	case stateFinWait1:
		switch {
		case finAcked && c.rcvdFin:
			c.enterTimeWait()
		case finAcked:
			c.setState(stateFinWait2)
		case c.rcvdFin:
			c.setState(stateClosing)
		}
	case stateFinWait2:
		if c.rcvdFin {
			c.enterTimeWait()
		}
	case stateClosing:
		if finAcked {
			c.enterTimeWait()
		}
	case stateLastAck:
		if finAcked {
			c.teardown(nil)
		}
	}
}

// enterTimeWait completes the active close: both directions are done, so
// the application sees the connection closed now, while the protocol
// identity lingers for 2MSL to absorb stragglers and re-ACK a
// retransmitted FIN.
func (c *Conn) enterTimeWait() {
	c.setState(stateTimeWait)
	c.stopRTO()
	c.releaseStream()
	if c.ownSpan {
		c.ownSpan = false
		c.stack.node.Network().Tracer.Finish(c.ctx)
	}
	c.fireOnClose(nil)
	c.armTimeWait()
}

// --- ACK processing ---

func (c *Conn) processAck(seg *Segment) {
	// A straggler ACK can cover data beyond a rewound send pointer
	// (go-back-N after RTO): advance the pointer to match. An ACK of
	// dataEnd()+1 covers the FIN too. It counts only if a FIN went out
	// for that sequence (maxSent is past the data), and then it
	// acknowledges that FIN even though the rewind withdrew it, so the
	// close completes instead of waiting for a FIN trySend never re-sends.
	if seqGT(seg.Ack, c.sndNxt) && seqLE(seg.Ack, c.dataEnd()+1) {
		if seg.Ack != c.dataEnd()+1 {
			c.sndNxt = seg.Ack
		} else if seqGT(c.maxSent, c.dataEnd()) {
			c.finSent, c.finSeq = true, c.dataEnd()
			c.sndNxt = seg.Ack
		}
	}
	switch {
	case seqGT(seg.Ack, c.sndUna) && seqLE(seg.Ack, c.sndNxt):
		ackedBytes := int(seqDiff(seg.Ack, c.sndUna))
		c.sndUna = seg.Ack
		c.peerWnd = seg.Wnd
		c.stats.BytesAcked += uint64(ackedBytes)
		c.trimBuffer()

		if c.rttValid && seqGT(seg.Ack, c.rttSeq) {
			c.sampleRTT(c.sched().Now() - c.rttStart)
			c.rttValid = false
		}
		c.retries = 0
		c.rto = c.currentRTOBase()
		c.dupAcks = 0
		if c.inRecovery && c.opts.NewReno && seqLT(seg.Ack, c.recover) {
			// NewReno partial ACK: another segment from the lossy window
			// is missing — retransmit it immediately, stay in recovery,
			// and deflate by the amount acknowledged.
			c.retransmitOldest()
			c.cc.OnPartialAck(ackedBytes)
			c.syncCwnd()
			c.restartRTO()
			return
		}
		if c.inRecovery {
			// Recovery complete: deflate to ssthresh.
			c.inRecovery = false
			c.cc.OnExitRecovery()
		} else {
			c.cc.OnAck(ackedBytes, c.sched().Now())
		}
		c.syncCwnd()
		if c.sndUna == c.sndNxt {
			c.stopRTO()
		} else {
			c.restartRTO()
		}
		c.trySend()

	case seg.Ack == c.sndUna && c.sndNxt != c.sndUna && len(seg.Payload) == 0 && seg.Flags&(SYN|FIN) == 0:
		// Duplicate ACK.
		c.dupAcks++
		if c.inRecovery {
			// Fast recovery: inflate and try to send new data.
			c.cc.OnDupAck()
			c.syncCwnd()
			c.trySend()
		} else if c.dupAcks == dupAckThreshold {
			c.fastRetransmit()
		}
	}
}

func (c *Conn) fastRetransmit() {
	c.stats.FastRetransmits++
	c.stack.m.fastRetransmits.Inc()
	c.stack.node.Network().Tracer.Annotate(c.ctx, "tcp.fast_retransmit")
	flight := int(seqDiff(c.sndNxt, c.sndUna))
	c.cc.OnEnterRecovery(flight, c.sched().Now())
	c.inRecovery = true
	c.recover = c.sndNxt
	c.syncCwnd()
	c.retransmitOldest()
	c.restartRTO()
}

// trimBuffer reclaims the acknowledged prefix of the send buffer. It
// only acts when the flight is empty: any in-flight duplicate then
// carries bytes the peer has fully acknowledged, which a receiver
// discards without reading, so reusing the backing array is safe. (The
// same invariant covers out-of-order copies the receiver buffered:
// unacked bytes are never rewritten.)
func (c *Conn) trimBuffer() {
	if c.finSent || c.sndUna != c.sndNxt {
		return
	}
	acked := int(c.sndUna - c.bufBase)
	if acked <= 0 {
		return
	}
	if acked == len(c.sndBuf) {
		// Fully drained: rewind to the array start so steady-state
		// request/response traffic reuses one allocation forever.
		c.sndBuf = c.sndBuf[:0]
		c.bufBase = c.sndUna
	} else if acked >= trimThreshold {
		n := copy(c.sndBuf, c.sndBuf[acked:])
		c.sndBuf = c.sndBuf[:n]
		c.bufBase = c.sndUna
	}
}

// trimThreshold is the acked-prefix size past which a quiescent
// connection compacts its send buffer in place.
const trimThreshold = 1 << 20

func (c *Conn) sampleRTT(sample time.Duration) {
	if sample <= 0 {
		sample = time.Microsecond
	}
	c.stack.m.rtt.Observe(sample)
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
	} else {
		diff := c.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		c.rttvar = (3*c.rttvar + diff) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	c.rto = c.currentRTOBase()
}

// --- data processing ---

func (c *Conn) processData(seg *Segment) {
	switch {
	case seqLE(seg.Seq, c.rcvNxt) && seqGT(seg.Seq+seg.Len(), c.rcvNxt):
		// In order (possibly with an already-received head to skip, when
		// a retransmission repacketized across the original boundary).
		c.acceptInOrder(seg)
		c.drainOOO()
	case seqGT(seg.Seq, c.rcvNxt):
		// Out of order: buffer (bounded, one segment per start) and
		// duplicate-ACK. The segment itself is pool-owned, so retain an
		// unpooled copy.
		if len(c.ooo) < c.opts.RcvWnd/mss+1 {
			i, dup := slices.BinarySearchFunc(c.ooo, seg.Seq, func(s *Segment, seq uint32) int {
				return int(seqDiff(s.Seq, seq))
			})
			if !dup {
				c.ooo = slices.Insert(c.ooo, i, seg.clone())
			}
		}
		c.stats.DupAcksSent++
		c.stack.m.dupAcksSent.Inc()
	default:
		// Stale duplicate; re-ACK so the sender advances.
	}
	c.sendAck()
}

// drainOOO consumes buffered segments from the front of the queue while
// they reach the in-order stream, delivering those that extend it and
// discarding those it already covers. The queue is re-read after every
// delivery, since the data callback may tear the connection down.
func (c *Conn) drainOOO() {
	for len(c.ooo) > 0 && seqLE(c.ooo[0].Seq, c.rcvNxt) {
		sg := c.ooo[0]
		c.ooo = slices.Delete(c.ooo, 0, 1)
		if seqGT(sg.Seq+sg.Len(), c.rcvNxt) {
			c.acceptInOrder(sg)
		}
	}
}

func (c *Conn) acceptInOrder(seg *Segment) {
	payload := seg.Payload
	if skip := int(seqDiff(c.rcvNxt, seg.Seq)); skip > 0 {
		if skip >= len(payload) {
			payload = nil
		} else {
			payload = payload[skip:]
		}
	}
	if n := len(payload); n > 0 {
		c.rcvNxt += uint32(n)
		c.stats.BytesReceived += uint64(n)
		c.stack.m.bytesRcvd.Add(uint64(n))
		if c.onData != nil {
			c.onData(payload)
		}
	}
	if seg.Flags&FIN != 0 && !c.rcvdFin {
		c.rcvdFin = true
		c.rcvNxt++
		if c.onEOF != nil && !c.eofFired {
			c.eofFired = true
			c.onEOF()
		}
	}
}

// --- teardown ---

// releaseStream frees the stream buffers once no more data can move.
func (c *Conn) releaseStream() {
	c.ooo = nil
	c.sndBuf = nil
}

func (c *Conn) fireOnClose(err error) {
	if c.closed {
		return
	}
	if c.onClose != nil {
		c.closed = true
		c.onClose(err)
	}
}

// teardown finalizes the connection and fires OnClose exactly once.
// A nil error from TIME_WAIT expiry is invisible to the application
// (OnClose already fired when TIME_WAIT was entered).
func (c *Conn) teardown(err error) {
	if c.state == stateClosed {
		return
	}
	c.setState(stateClosed)
	c.stopRTO()
	c.stack.remove(c)
	if c.ownSpan {
		c.ownSpan = false
		c.stack.node.Network().Tracer.Finish(c.ctx)
	}
	c.releaseStream()
	if c.lastCwnd != 0 {
		c.stack.m.cwnd.Add(-int64(c.lastCwnd))
		c.lastCwnd = 0
	}
	c.fireOnClose(err)
}
