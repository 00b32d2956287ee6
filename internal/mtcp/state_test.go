package mtcp

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"mcommerce/internal/simnet"
)

// pair is the internal-package twin of the conn_test duplex harness: a
// two-host topology with direct access to stack and connection state.
type pair struct {
	net            *simnet.Network
	client, server *simnet.Node
	cs, ss         *Stack
}

func newPair(t testing.TB, seed int64, cfg simnet.LinkConfig) *pair {
	t.Helper()
	net := simnet.NewNetwork(simnet.NewScheduler(seed))
	c := net.NewNode("client")
	s := net.NewNode("server")
	l := simnet.Connect(c, s, cfg)
	c.SetDefaultRoute(l.IfaceA())
	s.SetDefaultRoute(l.IfaceB())
	cs, err := NewStack(c)
	if err != nil {
		t.Fatalf("client stack: %v", err)
	}
	ss, err := NewStack(s)
	if err != nil {
		t.Fatalf("server stack: %v", err)
	}
	return &pair{net: net, client: c, server: s, cs: cs, ss: ss}
}

func testPattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*11 + i/127)
	}
	return b
}

// stateCheck asserts a connection's state at a given virtual time.
type stateCheck struct {
	at   time.Duration
	who  string // "client" or "server"
	want connState
}

// TestStateTransitions drives close handshakes over a real link and
// pins the RFC 793 state each side occupies at deterministic instants
// (5ms one-way delay, so segment k arrives at t+5ms·k; TIME_WAIT lasts
// 2*msl).
func TestStateTransitions(t *testing.T) {
	var opts Options
	cases := []struct {
		name string
		// script registers actions on the established pair; cl/sv are
		// filled in before the scheduler runs.
		script func(p *pair, cl, sv func() *Conn)
		checks []stateCheck
	}{
		{
			name: "active close walks FIN_WAIT_1, FIN_WAIT_2, TIME_WAIT, CLOSED",
			script: func(p *pair, cl, sv func() *Conn) {
				p.net.Sched.At(1*time.Second, func() { cl().Close() })
				p.net.Sched.At(3*time.Second, func() { sv().Close() })
			},
			checks: []stateCheck{
				// Client FIN at 1s; server ACK lands at 1.01s.
				{at: 2 * time.Second, who: "client", want: stateFinWait2},
				{at: 2 * time.Second, who: "server", want: stateCloseWait},
				// Server FIN at 3s; ACKed by 3.01s: passive side fully
				// closed, active side holds TIME_WAIT for 2MSL.
				{at: 3100 * time.Millisecond, who: "server", want: stateClosed},
				{at: 3100 * time.Millisecond, who: "client", want: stateTimeWait},
				{at: 3100*time.Millisecond + 2*msl, who: "client", want: stateClosed},
			},
		},
		{
			name: "simultaneous close crosses through CLOSING",
			script: func(p *pair, cl, sv func() *Conn) {
				p.net.Sched.At(1*time.Second, func() { cl().Close() })
				p.net.Sched.At(1*time.Second, func() { sv().Close() })
			},
			checks: []stateCheck{
				// FINs cross mid-link: each side sees the peer's FIN at
				// 1.005s before its own is ACKed (1.01s).
				{at: 1007 * time.Millisecond, who: "client", want: stateClosing},
				{at: 1007 * time.Millisecond, who: "server", want: stateClosing},
				{at: 1100 * time.Millisecond, who: "client", want: stateTimeWait},
				{at: 1100 * time.Millisecond, who: "server", want: stateTimeWait},
				{at: 1100*time.Millisecond + 2*msl, who: "client", want: stateClosed},
				{at: 1100*time.Millisecond + 2*msl, who: "server", want: stateClosed},
			},
		},
		{
			name: "half-close drains data from CLOSE_WAIT through LAST_ACK",
			script: func(p *pair, cl, sv func() *Conn) {
				p.net.Sched.At(1*time.Second, func() { cl().Close() })
				p.net.Sched.At(2*time.Second, func() {
					sv().Send(testPattern(40_000)) // sent entirely from CLOSE_WAIT
				})
				p.net.Sched.At(4*time.Second, func() { sv().Close() })
			},
			checks: []stateCheck{
				{at: 3 * time.Second, who: "server", want: stateCloseWait},
				{at: 3 * time.Second, who: "client", want: stateFinWait2},
				{at: 4002 * time.Millisecond, who: "server", want: stateLastAck},
				{at: 4100 * time.Millisecond, who: "server", want: stateClosed},
				{at: 4100 * time.Millisecond, who: "client", want: stateTimeWait},
				{at: 4100*time.Millisecond + 2*msl, who: "client", want: stateClosed},
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newPair(t, 7, simnet.LinkConfig{Rate: 10 * simnet.Mbps, Delay: 5 * time.Millisecond})
			var clientConn, serverConn *Conn
			var fromServer []byte
			if err := p.ss.Listen(80, opts, func(c *Conn) {
				serverConn = c
			}); err != nil {
				t.Fatalf("Listen: %v", err)
			}
			p.cs.Dial(simnet.Addr{Node: p.server.ID, Port: 80}, opts, func(c *Conn, err error) {
				if err != nil {
					t.Errorf("Dial: %v", err)
					return
				}
				clientConn = c
				c.OnData(func(b []byte) { fromServer = append(fromServer, b...) })
			})
			cl := func() *Conn { return clientConn }
			sv := func() *Conn { return serverConn }
			tc.script(p, cl, sv)
			type snap struct {
				check stateCheck
				got   connState
			}
			var snaps []snap
			for _, ck := range tc.checks {
				ck := ck
				p.net.Sched.At(ck.at, func() {
					c := clientConn
					if ck.who == "server" {
						c = serverConn
					}
					snaps = append(snaps, snap{check: ck, got: c.state})
				})
			}
			if err := p.net.Sched.RunUntil(20 * time.Second); err != nil {
				t.Fatalf("Run: %v", err)
			}
			for _, s := range snaps {
				if s.got != s.check.want {
					t.Errorf("%s at %v: state = %v, want %v", s.check.who, s.check.at, s.got, s.check.want)
				}
			}
			if tc.name == "half-close drains data from CLOSE_WAIT through LAST_ACK" {
				if !bytes.Equal(fromServer, testPattern(40_000)) {
					t.Errorf("CLOSE_WAIT drain delivered %d bytes, want %d", len(fromServer), 40_000)
				}
			}
		})
	}
}

// establishPair dials client→server and runs until both ends are up.
func establishPair(t *testing.T, p *pair, opts Options) (client, server *Conn) {
	t.Helper()
	if err := p.ss.Listen(80, opts, func(c *Conn) { server = c }); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	p.cs.Dial(simnet.Addr{Node: p.server.ID, Port: 80}, opts, func(c *Conn, err error) {
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		client = c
	})
	if err := p.net.Sched.RunUntil(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if client == nil || server == nil || !client.Established() || !server.Established() {
		t.Fatal("pair did not establish")
	}
	return client, server
}

// TestTimeWaitHoldsPortAndReACKsFIN verifies the 2MSL hold: while in
// TIME_WAIT the connection identity stays registered (port busy), a
// retransmitted FIN from the peer is re-ACKed and restarts the clock,
// and after 2MSL of quiet the identity is released for reuse.
func TestTimeWaitHoldsPortAndReACKsFIN(t *testing.T) {
	var opts Options
	p := newPair(t, 9, simnet.LinkConfig{Rate: 10 * simnet.Mbps, Delay: 5 * time.Millisecond})
	client, server := establishPair(t, p, opts)

	p.net.Sched.At(1100*time.Millisecond, func() { client.Close() })
	p.net.Sched.At(1150*time.Millisecond, func() { server.Close() })
	if err := p.net.Sched.RunUntil(1300 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if client.state != stateTimeWait {
		t.Fatalf("client state = %v, want TIME_WAIT", client.state)
	}
	port := client.LocalAddr().Port
	if !p.cs.portBusy(port) {
		t.Error("TIME_WAIT should keep the local port busy")
	}

	// Synthesize the peer retransmitting its FIN (as if our final ACK
	// was lost): the TIME_WAIT handler must re-ACK and restart 2MSL.
	sentBefore := client.stats.SegmentsSent
	fin := &Segment{Flags: FIN | ACK, Seq: server.finSeq, Ack: client.rcvNxt}
	client.receive(fin)
	if client.state != stateTimeWait {
		t.Fatalf("after FIN rtx: state = %v, want TIME_WAIT", client.state)
	}
	if client.stats.SegmentsSent != sentBefore+1 {
		t.Errorf("retransmitted FIN not re-ACKed (sent %d, want %d)", client.stats.SegmentsSent, sentBefore+1)
	}

	// The re-ACK restarted the clock: the identity survives the original
	// deadline and clears 2MSL after the retransmission.
	if err := p.net.Sched.RunUntil(p.net.Sched.Now() + 2*msl + 50*time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if client.state != stateClosed {
		t.Fatalf("after 2MSL: state = %v, want CLOSED", client.state)
	}
	if p.cs.portBusy(port) {
		t.Error("port still busy after TIME_WAIT expired")
	}
}

// TestLateACKOfWithdrawnFINCloses: an RTO's go-back-N rewind withdraws
// an unacknowledged FIN, and the window after the timeout is too small to
// re-send it behind the data. The peer's ACK of the original flight, FIN
// included, then arrives late: it must acknowledge the FIN, so the
// LAST_ACK side reaches CLOSED and frees its port instead of waiting
// forever for a FIN it never re-sends.
func TestLateACKOfWithdrawnFINCloses(t *testing.T) {
	p := newPair(t, 13, simnet.LinkConfig{Rate: 10 * simnet.Mbps, Delay: 5 * time.Millisecond})
	client, server := establishPair(t, p, Options{})
	p.net.Sched.At(1100*time.Millisecond, func() { server.Close() })
	if err := p.net.Sched.RunUntil(1200 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if client.state != stateCloseWait {
		t.Fatalf("client state = %v, want CLOSE_WAIT", client.state)
	}
	port := client.LocalAddr().Port

	// Two segments fill the initial window and the FIN follows them.
	client.Send(testPattern(2 * mss))
	client.Close()
	if client.state != stateLastAck || !client.finSent {
		t.Fatalf("after Close: state = %v, finSent = %v, want LAST_ACK with the FIN out", client.state, client.finSent)
	}
	// The RTO fires before any ACK: the window falls to one segment, so
	// the rewind re-sends the first segment and withdraws the FIN.
	client.onRTO()
	if client.finSent {
		t.Fatal("the RTO did not withdraw the FIN")
	}
	client.receive(&Segment{Flags: ACK, Seq: client.rcvNxt, Ack: client.dataEnd() + 1, Wnd: client.opts.RcvWnd})
	if client.state != stateClosed {
		t.Fatalf("after the late ACK of the FIN: state = %v, want CLOSED", client.state)
	}
	if p.cs.portBusy(port) {
		t.Error("port still busy after the FIN was acknowledged")
	}
	// The segments still in flight land on a closed identity.
	if err := p.net.Sched.RunUntil(3 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestACKPastDataWithoutFINIgnored: an ACK one past the queued data
// covers a FIN; with no FIN sent it acknowledges nothing.
func TestACKPastDataWithoutFINIgnored(t *testing.T) {
	p := newPair(t, 14, simnet.LinkConfig{Rate: 10 * simnet.Mbps, Delay: 5 * time.Millisecond})
	client, _ := establishPair(t, p, Options{})
	client.Send(testPattern(2 * mss))
	una := client.sndUna
	client.receive(&Segment{Flags: ACK, Seq: client.rcvNxt, Ack: client.dataEnd() + 1, Wnd: client.opts.RcvWnd})
	if client.sndUna != una || client.sndNxt != client.dataEnd() {
		t.Fatalf("ACK past the data moved sndUna %d -> %d, sndNxt to %d (dataEnd %d)", una, client.sndUna, client.sndNxt, client.dataEnd())
	}
}

// TestRSTOnDataPastFIN: payload beyond a received FIN is a protocol
// violation; the connection answers RST and tears down.
func TestRSTOnDataPastFIN(t *testing.T) {
	p := newPair(t, 11, simnet.LinkConfig{Rate: 10 * simnet.Mbps, Delay: 5 * time.Millisecond})
	client, server := establishPair(t, p, Options{})

	var closeErr error
	gotClose := false
	server.OnClose(func(err error) { gotClose = true; closeErr = err })

	p.net.Sched.At(1100*time.Millisecond, func() { client.Close() })
	if err := p.net.Sched.RunUntil(1200 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if server.state != stateCloseWait {
		t.Fatalf("server state = %v, want CLOSE_WAIT", server.state)
	}

	// Data claiming sequence space past the client's FIN.
	bogus := &Segment{Flags: ACK, Seq: server.rcvNxt + 10, Ack: server.sndNxt, Payload: []byte("x")}
	server.receive(bogus)
	if server.state != stateClosed {
		t.Fatalf("server state = %v, want CLOSED after RST", server.state)
	}
	if !gotClose || closeErr != ErrReset {
		t.Errorf("OnClose = (%v, %v), want (true, ErrReset)", gotClose, closeErr)
	}
	// The RST reaches the client and resets it too.
	if err := p.net.Sched.RunUntil(1300 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if client.state != stateClosed {
		t.Errorf("client state = %v, want CLOSED (reset by peer)", client.state)
	}
}

// TestSequenceNumberWraparound pins a transfer that crosses the 2^32
// boundary mid-stream, under loss, in both directions.
func TestSequenceNumberWraparound(t *testing.T) {
	iss := uint32(0xFFFF_FF00) // wraps ~256 bytes into the stream
	opts := Options{issOverride: &iss}
	p := newPair(t, 13, simnet.LinkConfig{Rate: 10 * simnet.Mbps, Delay: 10 * time.Millisecond, Loss: 0.03})

	const size = 300_000
	want := testPattern(size)
	var atServer, atClient []byte
	if err := p.ss.Listen(80, opts, func(c *Conn) {
		c.OnData(func(b []byte) {
			atServer = append(atServer, b...)
			if len(atServer) == size {
				c.Send(want[:size/2]) // echo half back across the same wrap region
				c.Close()
			}
		})
	}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	p.cs.Dial(simnet.Addr{Node: p.server.ID, Port: 80}, opts, func(c *Conn, err error) {
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		c.OnData(func(b []byte) { atClient = append(atClient, b...) })
		c.Send(want)
	})
	if err := p.net.Sched.RunUntil(120 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !bytes.Equal(atServer, want) {
		t.Fatalf("forward stream across wraparound: got %d bytes, match=%v", len(atServer), bytes.Equal(atServer, want))
	}
	if !bytes.Equal(atClient, want[:size/2]) {
		t.Fatalf("reverse stream across wraparound: got %d bytes, match=%v", len(atClient), bytes.Equal(atClient, want[:size/2]))
	}
}

// TestSimultaneousOpen: both ends Dial each other's ephemeral... both
// ends Dial a fixed port on the peer while listening themselves is the
// classic crossing-SYN scenario at the segment level: drive it directly
// through the state handlers.
func TestSimultaneousOpen(t *testing.T) {
	p := newPair(t, 17, simnet.LinkConfig{Rate: 10 * simnet.Mbps, Delay: 5 * time.Millisecond})

	// Build two connections by hand bound to fixed ports, then feed each
	// the other's SYN before any reply travels: SYN_SENT + SYN →
	// SYN_RCVD (RFC 793 figure 8), SYN|ACK completes both.
	a := newConn(p.cs, 1000, simnet.Addr{Node: p.server.ID, Port: 2000}, Options{}.withDefaults())
	b := newConn(p.ss, 2000, simnet.Addr{Node: p.client.ID, Port: 1000}, Options{}.withDefaults())
	p.cs.insert(a)
	p.ss.insert(b)
	var aUp, bUp bool
	a.onConnect = func(_ *Conn, err error) { aUp = err == nil }
	b.onConnect = func(_ *Conn, err error) { bUp = err == nil }
	a.startConnect()
	b.startConnect()
	if err := p.net.Sched.RunUntil(2 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.state != stateEstablished || b.state != stateEstablished {
		t.Fatalf("states = %v/%v, want ESTABLISHED/ESTABLISHED", a.state, b.state)
	}
	if !aUp || !bUp {
		t.Errorf("connect callbacks = %v/%v, want true/true", aUp, bUp)
	}
	// The crossing handshake must still carry data.
	var got []byte
	b.OnData(func(p []byte) { got = append(got, p...) })
	a.Send([]byte("simultaneous"))
	if err := p.net.Sched.RunUntil(3 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if string(got) != "simultaneous" {
		t.Errorf("data after simultaneous open = %q", got)
	}
}

// TestSenderRespectsPeerWindow samples the flight size during a bulk
// transfer against a small advertised window: flow control must bound
// outstanding data by the window even though cwnd grows far past it.
func TestSenderRespectsPeerWindow(t *testing.T) {
	const rcvWnd = 8 << 10
	p := newPair(t, 19, simnet.LinkConfig{Rate: 10 * simnet.Mbps, Delay: 5 * time.Millisecond})
	var cl *Conn
	if err := p.ss.Listen(80, Options{RcvWnd: rcvWnd}, func(c *Conn) {}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	p.cs.Dial(simnet.Addr{Node: p.server.ID, Port: 80}, Options{}, func(c *Conn, err error) {
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		cl = c
		c.Send(testPattern(400_000))
	})
	maxFlight := 0
	var sample func()
	sample = func() {
		if cl != nil && cl.open() {
			if fl := int(seqDiff(cl.sndNxt, cl.sndUna)); fl > maxFlight {
				maxFlight = fl
			}
		}
		p.net.Sched.After(time.Millisecond, sample)
	}
	p.net.Sched.After(time.Millisecond, sample)
	if err := p.net.Sched.RunUntil(10 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if maxFlight == 0 {
		t.Fatal("never sampled an active flight")
	}
	// One MSS of slack: a partial segment may straddle the window edge.
	if maxFlight > rcvWnd+1400 {
		t.Errorf("flight reached %d bytes, want <= advertised window %d", maxFlight, rcvWnd)
	}
	if cwnd := cl.cc.Cwnd(); cwnd <= rcvWnd {
		t.Logf("note: cwnd %d never exceeded the advertised window", cwnd)
	}
}

// TestOutOfOrderDrainIsOrdered pins reassembly order when two buffered
// segments overlap: once [0,1300) arrives, both [1000,2400) and
// [1200,2600) reach the next expected byte, and the lower one is
// delivered first. Each case runs on 64 fresh connections, so a queue
// whose drain order depended on map iteration would fail; the wrap case
// starts the stream 1,023 bytes below 2^32.
func TestOutOfOrderDrainIsOrdered(t *testing.T) {
	wrapISS := uint32(0xFFFF_FC00)
	for _, tc := range []struct {
		name string
		iss  *uint32
	}{{"plain", nil}, {"wrap", &wrapISS}} {
		t.Run(tc.name, func(t *testing.T) {
			p := newPair(t, 1, simnet.LinkConfig{Rate: 10 * simnet.Mbps, Delay: time.Millisecond})
			var conns []*Conn
			if err := p.ss.Listen(80, Options{}, func(c *Conn) { conns = append(conns, c) }); err != nil {
				t.Fatalf("Listen: %v", err)
			}
			const n = 64
			for i := 0; i < n; i++ {
				p.cs.Dial(simnet.Addr{Node: p.server.ID, Port: 80}, Options{issOverride: tc.iss}, func(*Conn, error) {})
			}
			if err := p.net.Sched.RunUntil(time.Second); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if len(conns) != n {
				t.Fatalf("accepted %d connections, want %d", len(conns), n)
			}
			want := [][2]int{{0, 1300}, {1300, 2400}, {2400, 2600}}
			for i, c := range conns {
				base := c.rcvNxt
				if tc.iss != nil && base != *tc.iss+1 {
					t.Fatalf("conn %d: stream starts at %#x, want %#x", i, base, *tc.iss+1)
				}
				var got [][2]int
				c.OnData(func(b []byte) {
					end := int(c.rcvNxt - base)
					got = append(got, [2]int{end - len(b), end})
				})
				seg := func(from, to int) *Segment {
					return &Segment{Seq: base + uint32(from), Flags: ACK, Payload: make([]byte, to-from)}
				}
				c.processData(seg(1000, 2400))
				c.processData(seg(1200, 2600))
				c.processData(seg(0, 1300))
				if !slices.Equal(got, want) {
					t.Fatalf("conn %d: delivered chunks %v, want %v", i, got, want)
				}
				if len(c.ooo) != 0 {
					t.Fatalf("conn %d: %d segments left buffered", i, len(c.ooo))
				}
			}
		})
	}
}
