package wap_test

import (
	"errors"
	"testing"
	"time"

	"mcommerce/internal/faults"
	"mcommerce/internal/wap"
)

// TestGatewayCrashMidSession crashes the gateway while a method is in
// flight. The in-flight method must either complete or surface a typed
// error — never hang — and after the restart the mobile must be able to
// re-establish a session and fetch again (the old session ID is dead: the
// crash lost all volatile gateway state).
func TestGatewayCrashMidSession(t *testing.T) {
	w := newWAPTopo(t, 7, 0, wap.DefaultGatewayConfig())

	in := faults.NewInjector(w.net)
	in.RegisterNode("gateway", w.gwNode, w.gateway.Crash, nil)
	plan := faults.NewPlan("gw-crash").Add(faults.Event{
		At: 2060 * time.Millisecond, Duration: time.Second,
		Kind: faults.NodeCrash, Target: "gateway",
	})
	if err := in.Schedule(plan); err != nil {
		t.Fatalf("Schedule: %v", err)
	}

	var sess *wap.Session
	inFlight := 0
	var inFlightReply *wap.Reply
	var inFlightErr error
	oldSessionStatus := 0
	reconnected := false
	refetched := false

	wap.Connect(wap.NewWTPAny(w.mobile, wap.WTPConfig{}), w.gateway.Addr(), nil, func(s *wap.Session, err error) {
		if err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		sess = s
		// First method before the crash must succeed.
		s.Get(w.originURL("/shop"), func(rep *wap.Reply, err error) {
			if err != nil || rep.Status != 200 {
				t.Errorf("pre-crash Get: rep=%+v err=%v", rep, err)
			}
		})
	})

	// In-flight method: issued just before the crash lands.
	w.net.Sched.At(2*time.Second, func() {
		sess.Get(w.originURL("/shop"), func(rep *wap.Reply, err error) {
			inFlight++
			inFlightReply, inFlightErr = rep, err
		})
	})

	// After the restart: the old session must be refused, a fresh connect
	// must work end to end.
	w.net.Sched.At(20*time.Second, func() {
		sess.Get(w.originURL("/shop"), func(rep *wap.Reply, err error) {
			if err != nil {
				t.Errorf("old-session Get errored: %v", err)
				return
			}
			oldSessionStatus = rep.Status
		})
		wap.Connect(wap.NewWTPAny(w.mobile, wap.WTPConfig{}), w.gateway.Addr(), nil, func(s *wap.Session, err error) {
			if err != nil {
				t.Errorf("reconnect: %v", err)
				return
			}
			reconnected = true
			s.Get(w.originURL("/shop"), func(rep *wap.Reply, err error) {
				if err != nil || rep.Status != 200 {
					t.Errorf("post-restart Get: rep=%+v err=%v", rep, err)
					return
				}
				refetched = true
			})
		})
	})

	if err := w.net.Sched.RunFor(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}

	if st := in.Stats(); st.Crashes != 1 || st.Restarts != 1 {
		t.Fatalf("injector stats = %+v, want one crash and one restart", st)
	}
	// The in-flight method must have resolved exactly once, either with a
	// reply (the result raced ahead of the crash, or a retransmit reached
	// the restarted gateway and got 403) or with the typed abort error.
	if inFlight != 1 {
		t.Fatalf("in-flight method resolved %d times, want exactly 1 (no hang, no double-fire)", inFlight)
	}
	if inFlightErr != nil && !errors.Is(inFlightErr, wap.ErrAborted) {
		t.Errorf("in-flight error = %v, want nil or ErrAborted", inFlightErr)
	}
	if inFlightErr == nil && inFlightReply == nil {
		t.Error("in-flight method resolved with neither reply nor error")
	}
	if oldSessionStatus != 403 {
		t.Errorf("old-session Get status = %d, want 403 (session state lost in crash)", oldSessionStatus)
	}
	if !reconnected || !refetched {
		t.Errorf("reconnected=%v refetched=%v, want both", reconnected, refetched)
	}
}

// TestWTPBackoffGrowsRetryInterval pins that a Backoff-carrying config
// actually spaces retransmissions out: with exponential backoff the same
// retry budget covers a longer outage than the fixed interval does.
func TestWTPBackoffGrowsRetryInterval(t *testing.T) {
	run := func(cfg wap.WTPConfig) (aborted bool, replied bool) {
		w := newWAPTopo(t, 3, 0, wap.DefaultGatewayConfig())
		var sess *wap.Session
		wap.Connect(wap.NewWTPAny(w.mobile, cfg), w.gateway.Addr(), nil, func(s *wap.Session, err error) {
			if err != nil {
				t.Fatalf("Connect: %v", err)
			}
			sess = s
		})
		// 10s outage starting right before the method goes out. Fixed
		// 1.5s interval with 4 retries covers only 7.5s of it; backoff
		// factor 2 covers 1.5+3+6+12 = 22.5s.
		w.net.Sched.At(2*time.Second, func() { w.wireless.SetDown(true) })
		w.net.Sched.At(12*time.Second, func() { w.wireless.SetDown(false) })
		w.net.Sched.At(2100*time.Millisecond, func() {
			sess.Get(w.originURL("/shop"), func(rep *wap.Reply, err error) {
				if errors.Is(err, wap.ErrAborted) {
					aborted = true
					return
				}
				if err == nil && rep.Status == 200 {
					replied = true
				}
			})
		})
		if err := w.net.Sched.RunFor(2 * time.Minute); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return
	}

	aborted, _ := run(wap.WTPConfig{})
	if !aborted {
		t.Error("fixed-interval config should exhaust its retries inside a 10s outage")
	}
	_, replied := run(wap.WTPConfig{Backoff: faults.Backoff{Factor: 2, Cap: 30 * time.Second}})
	if !replied {
		t.Error("exponential-backoff config should ride out a 10s outage")
	}
}

// TestWTPRetriesDisabled pins the new MaxRetries < 0 semantics: one shot,
// then a typed abort — the "fragile" configuration the chaos experiment
// uses as its control.
func TestWTPRetriesDisabled(t *testing.T) {
	w := newWAPTopo(t, 5, 0, wap.DefaultGatewayConfig())
	var sess *wap.Session
	cfg := wap.WTPConfig{MaxRetries: -1}
	wap.Connect(wap.NewWTPAny(w.mobile, cfg), w.gateway.Addr(), nil, func(s *wap.Session, err error) {
		if err != nil {
			t.Fatalf("Connect: %v", err)
		}
		sess = s
	})
	var gotErr error
	fired := 0
	w.net.Sched.At(2*time.Second, func() { w.wireless.SetDown(true) })
	w.net.Sched.At(2100*time.Millisecond, func() {
		sess.Get(w.originURL("/shop"), func(rep *wap.Reply, err error) {
			fired++
			gotErr = err
		})
	})
	if err := w.net.Sched.RunFor(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 1 || !errors.Is(gotErr, wap.ErrAborted) {
		t.Errorf("fired=%d err=%v, want one ErrAborted (no retransmits)", fired, gotErr)
	}
	// No retransmissions happened network-wide: the mobile sent the invoke
	// exactly once.
	if drops := w.wireless.DroppedDown[0]; drops != 1 {
		t.Errorf("wireless down-drops = %d, want exactly 1 (single shot)", drops)
	}
}
