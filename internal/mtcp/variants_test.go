package mtcp_test

import (
	"bytes"
	"testing"
	"time"

	"mcommerce/internal/mtcp"
	"mcommerce/internal/simnet"
)

// wirelessPath is: fixed --clean wired-- gateway --lossy "wireless"-- mobile.
// The wireless hop is modelled as a lossy link so the variant mechanisms can
// be tested in isolation from the radio model.
type wirelessPath struct {
	net                    *simnet.Network
	fixed, gateway, mobile *simnet.Node
	wired, wireless        *simnet.Link
	fs, gs, ms             *mtcp.Stack
}

func newWirelessPath(t testing.TB, seed int64, loss float64) *wirelessPath {
	t.Helper()
	net := simnet.NewNetwork(simnet.NewScheduler(seed))
	fixed := net.NewNode("fixed")
	gw := net.NewNode("gateway")
	mob := net.NewNode("mobile")
	gw.Forwarding = true

	wired := simnet.Connect(fixed, gw, simnet.LinkConfig{Rate: 10 * simnet.Mbps, Delay: 20 * time.Millisecond})
	wl := simnet.Connect(gw, mob, simnet.LinkConfig{Rate: 2 * simnet.Mbps, Delay: 2 * time.Millisecond, Loss: loss})

	fixed.SetDefaultRoute(wired.IfaceA())
	mob.SetDefaultRoute(wl.IfaceB())
	gw.SetRoute(fixed.ID, wired.IfaceB())
	gw.SetRoute(mob.ID, wl.IfaceA())

	return &wirelessPath{
		net: net, fixed: fixed, gateway: gw, mobile: mob,
		wired: wired, wireless: wl,
		fs: mtcp.MustNewStack(fixed),
		gs: mtcp.MustNewStack(gw),
		ms: mtcp.MustNewStack(mob),
	}
}

// push transfers size bytes fixed -> mobile end-to-end and returns the
// fixed-side conn plus received byte count.
func (w *wirelessPath) push(t testing.TB, size int, horizon time.Duration) (*mtcp.Conn, int) {
	t.Helper()
	var got int
	if err := w.ms.Listen(80, mtcp.Options{}, func(c *mtcp.Conn) {
		c.OnData(func(b []byte) { got += len(b) })
	}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	sender := w.fs.Dial(simnet.Addr{Node: w.mobile.ID, Port: 80}, mtcp.Options{}, func(c *mtcp.Conn, err error) {
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		c.Send(pattern(size))
	})
	if err := w.net.Sched.RunUntil(horizon); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return sender, got
}

func TestSnoopShieldsFixedSenderFromWirelessLoss(t *testing.T) {
	const size = 300_000
	const loss = 0.03

	plain := newWirelessPath(t, 21, loss)
	plainSender, plainGot := plain.push(t, size, 2*time.Minute)

	snooped := newWirelessPath(t, 21, loss)
	agent := mtcp.NewSnoopAgent(snooped.gateway, func(id simnet.NodeID) bool {
		return id == snooped.mobile.ID
	})
	snoopSender, snoopGot := snooped.push(t, size, 2*time.Minute)

	if plainGot != size || snoopGot != size {
		t.Fatalf("transfers incomplete: plain=%d snoop=%d want=%d", plainGot, snoopGot, size)
	}
	st := agent.Stats()
	if st.LocalRetransmits == 0 {
		t.Error("snoop performed no local retransmissions")
	}
	if st.SuppressedDupAcks == 0 {
		t.Error("snoop suppressed no duplicate ACKs")
	}
	// The headline claim of [1]: the fixed sender's retransmission
	// overhead drops when losses are repaired locally.
	pr := plainSender.Stats().Retransmits
	sr := snoopSender.Stats().Retransmits
	if sr >= pr {
		t.Errorf("sender retransmits with snoop (%d) not below without (%d)", sr, pr)
	}
}

func TestSnoopPassesWiredLossThrough(t *testing.T) {
	// Loss on the wired segment is congestion; snoop must not hide it.
	// The wireless hop is faster than the wired one so no queue builds at
	// the access point (queue drops there would legitimately be cached).
	net := simnet.NewNetwork(simnet.NewScheduler(22))
	fixed := net.NewNode("fixed")
	gw := net.NewNode("gateway")
	mob := net.NewNode("mobile")
	gw.Forwarding = true
	wired := simnet.Connect(fixed, gw, simnet.LinkConfig{Rate: 2 * simnet.Mbps, Delay: 20 * time.Millisecond, Loss: 0.02})
	wl := simnet.Connect(gw, mob, simnet.LinkConfig{Rate: 10 * simnet.Mbps, Delay: 2 * time.Millisecond})
	fixed.SetDefaultRoute(wired.IfaceA())
	mob.SetDefaultRoute(wl.IfaceB())
	gw.SetRoute(fixed.ID, wired.IfaceB())
	gw.SetRoute(mob.ID, wl.IfaceA())
	fs := mtcp.MustNewStack(fixed)
	ms := mtcp.MustNewStack(mob)
	agent := mtcp.NewSnoopAgent(gw, func(id simnet.NodeID) bool { return id == mob.ID })

	const size = 200_000
	var got int
	if err := ms.Listen(80, mtcp.Options{}, func(c *mtcp.Conn) {
		c.OnData(func(b []byte) { got += len(b) })
	}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	sender := fs.Dial(simnet.Addr{Node: mob.ID, Port: 80}, mtcp.Options{}, func(c *mtcp.Conn, err error) {
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		c.Send(pattern(size))
	})
	if err := net.Sched.RunUntil(2 * time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != size {
		t.Fatalf("incomplete: %d/%d", got, size)
	}
	// Wired losses happen before the cache, so the agent cannot repair
	// them: the end-to-end sender must still retransmit.
	if sender.Stats().Retransmits == 0 {
		t.Error("sender never retransmitted despite wired loss")
	}
	if agent.Stats().LocalRetransmits != 0 {
		t.Errorf("agent locally retransmitted %d segments it could not have cached",
			agent.Stats().LocalRetransmits)
	}
}

func TestSnoopPreservesStreamContents(t *testing.T) {
	w := newWirelessPath(t, 23, 0.05)
	mtcp.NewSnoopAgent(w.gateway, func(id simnet.NodeID) bool { return id == w.mobile.ID })
	const size = 150_000
	want := pattern(size)
	var got []byte
	if err := w.ms.Listen(80, mtcp.Options{}, func(c *mtcp.Conn) {
		c.OnData(func(b []byte) { got = append(got, b...) })
	}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	w.fs.Dial(simnet.Addr{Node: w.mobile.ID, Port: 80}, mtcp.Options{}, func(c *mtcp.Conn, err error) {
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		c.Send(want)
	})
	if err := w.net.Sched.RunUntil(2 * time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("stream corrupted: %d/%d bytes", len(got), len(want))
	}
}

func TestRelayBridgesEndToEnd(t *testing.T) {
	w := newWirelessPath(t, 24, 0.02)
	const reqSize, respSize = 2_000, 100_000

	// Fixed server: reads the request, sends a response, closes.
	var reqGot []byte
	if err := w.fs.Listen(80, mtcp.Options{}, func(c *mtcp.Conn) {
		c.OnData(func(b []byte) {
			reqGot = append(reqGot, b...)
			if len(reqGot) == reqSize {
				c.Send(pattern(respSize))
				c.Close()
			}
		})
	}); err != nil {
		t.Fatalf("server Listen: %v", err)
	}

	relay, err := mtcp.NewRelay(w.gs, 8080, simnet.Addr{Node: w.fixed.ID, Port: 80},
		mtcp.Options{RTOMin: 100 * time.Millisecond}, mtcp.Options{})
	if err != nil {
		t.Fatalf("NewRelay: %v", err)
	}

	// Mobile client dials the relay, sends the request, reads the
	// response, and closes once the relay half-closes.
	var respGot []byte
	closed := false
	w.ms.Dial(simnet.Addr{Node: w.gateway.ID, Port: 8080}, mtcp.Options{}, func(c *mtcp.Conn, err error) {
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		c.OnData(func(b []byte) { respGot = append(respGot, b...) })
		c.OnEOF(c.Close)
		c.OnClose(func(error) { closed = true })
		c.Send(pattern(reqSize))
	})
	if err := w.net.Sched.RunUntil(2 * time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !bytes.Equal(reqGot, pattern(reqSize)) {
		t.Errorf("request: got %d bytes", len(reqGot))
	}
	if !bytes.Equal(respGot, pattern(respSize)) {
		t.Errorf("response: got %d bytes intact=%v", len(respGot), bytes.Equal(respGot, pattern(respSize)))
	}
	if !closed {
		t.Error("mobile connection did not close after relay teardown")
	}
	st := relay.Stats()
	if st.Accepted != 1 || st.BytesToFixed != reqSize || st.BytesToMobile != respSize {
		t.Errorf("relay stats = %+v", st)
	}
}

func TestRelayDialFailureAbortsMobile(t *testing.T) {
	w := newWirelessPath(t, 25, 0)
	// No listener on the fixed host: the wired dial gets RST.
	if _, err := mtcp.NewRelay(w.gs, 8080, simnet.Addr{Node: w.fixed.ID, Port: 99},
		mtcp.Options{}, mtcp.Options{}); err != nil {
		t.Fatalf("NewRelay: %v", err)
	}
	var gotErr error
	fired := false
	w.ms.Dial(simnet.Addr{Node: w.gateway.ID, Port: 8080}, mtcp.Options{}, func(c *mtcp.Conn, err error) {
		if err != nil {
			t.Errorf("wireless Dial should succeed, got %v", err)
			return
		}
		c.OnClose(func(err error) { gotErr, fired = err, true })
	})
	if err := w.net.Sched.RunUntil(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired || gotErr == nil {
		t.Errorf("mobile leg close: fired=%v err=%v; want error", fired, gotErr)
	}
}

// reconnectScenario transfers data through a 3-second blackout and returns
// completion time; signal selects whether the mobile uses SignalReconnect
// ([2]'s fast retransmission) when the link returns.
func reconnectScenario(t *testing.T, signal bool) time.Duration {
	t.Helper()
	w := newWirelessPath(t, 26, 0)
	const size = 120_000
	var mobileConn *mtcp.Conn
	var got int
	var doneAt time.Duration
	if err := w.ms.Listen(80, mtcp.Options{}, func(c *mtcp.Conn) {
		mobileConn = c
		c.OnData(func(b []byte) {
			got += len(b)
			if got == size {
				doneAt = w.net.Sched.Now()
			}
		})
	}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	w.fs.Dial(simnet.Addr{Node: w.mobile.ID, Port: 80}, mtcp.Options{}, func(c *mtcp.Conn, err error) {
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		c.Send(pattern(size))
	})
	// Blackout from 300 ms to 4.5 s. The sender's RTO backs off roughly
	// as 0.5s, 0.9s, 1.7s, 3.3s, 6.5s: reconnection at 4.5s lands in the
	// middle of the final gap, so without [2]'s signal the transfer idles
	// until ~6.5s.
	w.net.Sched.At(300*time.Millisecond, func() { w.wireless.IfaceB().Up = false })
	w.net.Sched.At(4500*time.Millisecond, func() {
		w.wireless.IfaceB().Up = true
		if signal && mobileConn != nil {
			mobileConn.SignalReconnect()
		}
	})
	if err := w.net.Sched.RunUntil(5 * time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != size {
		t.Fatalf("incomplete transfer: %d/%d (signal=%v)", got, size, signal)
	}
	return doneAt
}

func TestSignalReconnectBeatsRTOBackoff(t *testing.T) {
	plain := reconnectScenario(t, false)
	fast := reconnectScenario(t, true)
	if fast >= plain {
		t.Errorf("fast retransmit after handoff (%v) not faster than RTO backoff (%v)", fast, plain)
	}
	// [2]'s effect: recovery begins ~1 RTT after reconnection rather than
	// at the next (backed-off) RTO — the gap should be substantial.
	if plain-fast < 500*time.Millisecond {
		t.Errorf("improvement only %v; expected the backed-off RTO gap", plain-fast)
	}
}
