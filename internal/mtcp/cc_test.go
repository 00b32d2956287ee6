package mtcp

import (
	"bytes"
	"testing"
	"time"

	"mcommerce/internal/simnet"
)

func TestCCSelection(t *testing.T) {
	p := newPair(t, 21, simnet.LinkConfig{Rate: 10 * simnet.Mbps, Delay: 5 * time.Millisecond})
	client, server := establishPair(t, p, Options{CC: CCCubic})
	if got := client.CCName(); got != CCCubic {
		t.Errorf("client CC = %q, want %q", got, CCCubic)
	}
	if got := server.CCName(); got != CCCubic {
		t.Errorf("server CC = %q, want %q", got, CCCubic)
	}

	p2 := newPair(t, 22, simnet.LinkConfig{Rate: 10 * simnet.Mbps, Delay: 5 * time.Millisecond})
	c2, _ := establishPair(t, p2, Options{})
	if got := c2.CCName(); got != CCReno {
		t.Errorf("default CC = %q, want %q", got, CCReno)
	}
}

func TestUnknownCCPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("newCongestionControl(bogus) did not panic")
		}
	}()
	newCongestionControl(Options{CC: "vegas"}.withDefaults())
}

// TestCubicBulkTransfer runs a lossy bulk transfer under CUBIC and pins
// stream integrity: congestion control choice must never affect
// correctness, only pacing.
func TestCubicBulkTransfer(t *testing.T) {
	for _, cc := range []string{CCReno, CCCubic} {
		t.Run(cc, func(t *testing.T) {
			p := newPair(t, 31, simnet.LinkConfig{Rate: 8 * simnet.Mbps, Delay: 20 * time.Millisecond, Loss: 0.02})
			const size = 500_000
			want := testPattern(size)
			var got []byte
			done := false
			if err := p.ss.Listen(80, Options{CC: cc}, func(c *Conn) {
				c.OnData(func(b []byte) { got = append(got, b...) })
				c.OnEOF(func() { done = true; c.Close() })
			}); err != nil {
				t.Fatalf("Listen: %v", err)
			}
			p.cs.Dial(simnet.Addr{Node: p.server.ID, Port: 80}, Options{CC: cc}, func(c *Conn, err error) {
				if err != nil {
					t.Errorf("Dial: %v", err)
					return
				}
				c.Send(want)
				c.Close()
			})
			if err := p.net.Sched.RunUntil(120 * time.Second); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if !done {
				t.Fatal("EOF never delivered")
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("stream corrupted under %s: got %d bytes", cc, len(got))
			}
		})
	}
}

// TestCubicWindowCurve unit-tests the RFC 8312 window evolution: after a
// reduction the window regrows concavely toward wMax (shrinking
// increments), plateaus near wMax, then probes convexly beyond it
// (growing increments).
func TestCubicWindowCurve(t *testing.T) {
	o := Options{CC: CCCubic}.withDefaults()
	cc := newCongestionControl(o).(*cubicCC)
	now := time.Duration(0)
	cc.Init(now)

	// Leave slow start via a timeout-free path: force a recovery episode
	// at a known window. Grow to ~100 segments first.
	for cc.Cwnd() < 100*mss {
		cc.OnAck(mss, now)
		now += time.Millisecond
	}
	wBefore := cc.Cwnd()
	cc.OnEnterRecovery(wBefore, now)
	cc.OnExitRecovery()
	wAfter := cc.Cwnd()
	if ratio := float64(wAfter) / float64(wBefore); ratio < 0.65 || ratio > 0.75 {
		t.Errorf("multiplicative decrease ratio = %.3f, want ~%.2f", ratio, cubicBeta)
	}

	// Clock the window with one RTT of ACKs at a time and record the
	// per-RTT increments: concave approach to wMax (shrinking
	// increments), a flat TCP-friendly plateau, then convex probing once
	// the cubic term overtakes the Reno estimate.
	rtt := 40 * time.Millisecond
	ackRTT := func() int {
		before := cc.Cwnd()
		for b := 0; b < before; b += mss {
			cc.OnAck(mss, now)
		}
		now += rtt
		return cc.Cwnd() - before
	}
	var incs []int
	for i := 0; i < 300; i++ {
		incs = append(incs, ackRTT())
	}
	if incs[5] <= 0 {
		t.Fatalf("window did not grow after reduction (incs[:10]=%v)", incs[:10])
	}
	// Concave region: increments decay while climbing back toward wMax.
	if incs[40] >= incs[5] {
		t.Errorf("concave region not concave: increment %d at RTT 5, %d at RTT 40", incs[5], incs[40])
	}
	// Convex probing: once past wMax the cubic term dominates and the
	// per-RTT increment grows well beyond the plateau's.
	if last := incs[len(incs)-1]; last < 2*incs[40] {
		t.Errorf("convex probing not convex: increment %d at RTT 40, %d at RTT 300", incs[40], last)
	}
	// And the window must have regained, then exceeded, the pre-loss max.
	if cc.Cwnd() <= wBefore {
		t.Errorf("window never probed past the pre-loss max: %d <= %d", cc.Cwnd(), wBefore)
	}
}

// TestRenoUnchangedShape pins the Reno implementation behind the
// CongestionControl interface to classic AIMD arithmetic: +1 MSS per RTT
// in congestion avoidance, half (of flight) on entering recovery.
func TestRenoUnchangedShape(t *testing.T) {
	o := Options{CC: CCReno}.withDefaults()
	cc := newCongestionControl(o).(*renoCC)
	cc.Init(0)
	for cc.Cwnd() < 64*mss {
		cc.OnAck(mss, 0)
	}
	flight := cc.Cwnd()
	cc.OnEnterRecovery(flight, 0)
	cc.OnExitRecovery()
	if got, want := cc.Cwnd(), flight/2; got < want-mss || got > want+mss {
		t.Errorf("post-recovery cwnd = %d, want ~%d", got, want)
	}
	// Congestion avoidance: one full window of ACKs grows cwnd ~1 MSS.
	before := cc.Cwnd()
	for b := 0; b < before; b += mss {
		cc.OnAck(mss, 0)
	}
	if grow := cc.Cwnd() - before; grow < mss/2 || grow > 2*mss {
		t.Errorf("CA growth per RTT = %d bytes, want ~1 MSS (%d)", grow, mss)
	}
	cc.OnTimeout(cc.Cwnd(), 0)
	if cc.Cwnd() != mss {
		t.Errorf("post-RTO cwnd = %d, want 1 MSS", cc.Cwnd())
	}
}

// TestSegmentPathZeroAlloc pins the established-path contract: a steady
// send→deliver→ack cycle moves pooled segments and packets with zero
// heap allocations per round.
func TestSegmentPathZeroAlloc(t *testing.T) {
	p := newPair(t, 41, simnet.LinkConfig{Rate: 100 * simnet.Mbps, Delay: time.Millisecond})
	var rcvd int
	var server *Conn
	if err := p.ss.Listen(80, Options{}, func(c *Conn) {
		server = c
		c.OnData(func(b []byte) { rcvd += len(b) })
	}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	var client *Conn
	p.cs.Dial(simnet.Addr{Node: p.server.ID, Port: 80}, Options{}, func(c *Conn, err error) {
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		client = c
	})
	if err := p.net.Sched.RunUntil(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if client == nil || server == nil {
		t.Fatal("pair did not establish")
	}
	payload := testPattern(512)
	round := func() {
		client.Send(payload)
		if err := p.net.Sched.RunFor(50 * time.Millisecond); err != nil {
			t.Fatalf("RunFor: %v", err)
		}
	}
	// Warm the pools and grow the send buffer to steady-state capacity.
	for i := 0; i < 64; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Errorf("segment path allocated %.1f times per send→deliver→ack round, want 0", allocs)
	}
	if rcvd == 0 {
		t.Fatal("no data delivered")
	}
}

// TestFreeListCapped uploads one way over short connections: each one
// brings the server one pooled segment more than it sends back, so
// without a cap the server's free list would keep one segment per
// connection for the rest of the run. With 4x as many connections as the
// cap, the list must fill to exactly maxFreeSegs and stop there.
func TestFreeListCapped(t *testing.T) {
	p := newPair(t, 43, simnet.LinkConfig{Rate: 100 * simnet.Mbps, Delay: time.Millisecond})
	rcvd := 0
	if err := p.ss.Listen(80, Options{}, func(c *Conn) {
		c.OnData(func(b []byte) { rcvd += len(b) })
		c.OnEOF(c.Close)
	}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	const conns, size = 4 * maxFreeSegs, 4000
	upload := testPattern(size)
	for range conns {
		p.cs.Dial(simnet.Addr{Node: p.server.ID, Port: 80}, Options{}, func(c *Conn, err error) {
			if err != nil {
				t.Errorf("Dial: %v", err)
				return
			}
			c.Send(upload)
			c.Close()
		})
		if err := p.net.Sched.RunFor(100 * time.Millisecond); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	if err := p.net.Sched.RunFor(10 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rcvd != conns*size {
		t.Fatalf("received %d bytes, want %d", rcvd, conns*size)
	}
	if n := len(p.ss.segFree); n != maxFreeSegs {
		t.Errorf("receiving stack keeps %d free segments, want the cap, %d", n, maxFreeSegs)
	}
}
