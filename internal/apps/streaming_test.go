package apps_test

import (
	"testing"
	"time"

	"mcommerce/internal/apps"
	"mcommerce/internal/cellular"
	"mcommerce/internal/core"
	"mcommerce/internal/device"
	"mcommerce/internal/mtcp"
	"mcommerce/internal/simnet"
)

// streamOn plays the 900 KiB movie trailer (a 128 kbps clip) over the
// given cellular standard and returns the playback report.
func streamOn(t *testing.T, std cellular.Standard) apps.StreamStats {
	t.Helper()
	mc, err := core.BuildMC(core.MCConfig{
		Seed: 61, Bearer: core.BearerCellular, CellStandard: std,
		Devices: []device.Profile{device.CompaqIPAQH3870},
	})
	if err != nil {
		t.Fatalf("BuildMC: %v", err)
	}
	if err := apps.NewEntertainment().Register(mc.Host); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := apps.RegisterStreaming(mc.Host, mtcp.Options{}); err != nil {
		t.Fatalf("RegisterStreaming: %v", err)
	}
	player := apps.NewStreamPlayer(mc.Net.Sched, 128_000, 16<<10, 900<<10)
	closed := false
	apps.StreamMedia(mc.Clients[0].Stack, mc.Host.Node.ID, "clip1", player, mtcp.Options{}, func(err error) {
		if err != nil {
			t.Errorf("stream close: %v", err)
		}
		closed = true
	})
	// 900 KiB at 128 kbps is ~57 s of media; allow slack for slow bearers.
	if err := mc.Net.Sched.RunFor(10 * time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !closed {
		t.Fatal("stream connection never closed")
	}
	return player.Stats()
}

// TestStreamingQualityByGeneration quantifies the paper's 3G claim: the
// same 128 kbps clip stalls repeatedly on GPRS (a ~100 kbps bearer) and
// plays cleanly on WCDMA ("wireless multimedia and high-bandwidth
// services").
func TestStreamingQualityByGeneration(t *testing.T) {
	gprs := streamOn(t, cellular.GPRS)
	wcdma := streamOn(t, cellular.WCDMA)

	if !gprs.Started || !gprs.Finished {
		t.Fatalf("GPRS playback did not complete: %+v", gprs)
	}
	if !wcdma.Started || !wcdma.Finished {
		t.Fatalf("WCDMA playback did not complete: %+v", wcdma)
	}
	if gprs.Stalls == 0 {
		t.Errorf("GPRS: 128 kbps media on a ~100 kbps bearer should stall, got %+v", gprs)
	}
	if wcdma.Stalls != 0 {
		t.Errorf("WCDMA: stalled %d times; 2 Mbps should stream cleanly", wcdma.Stalls)
	}
	if wcdma.StartupDelay >= gprs.StartupDelay {
		t.Errorf("startup: WCDMA %v not below GPRS %v", wcdma.StartupDelay, gprs.StartupDelay)
	}
	t.Logf("GPRS: startup %v, %d stalls (%v frozen); WCDMA: startup %v, %d stalls",
		gprs.StartupDelay.Round(time.Millisecond), gprs.Stalls, gprs.StallTime.Round(time.Millisecond),
		wcdma.StartupDelay.Round(time.Millisecond), wcdma.Stalls)
}

// TestStreamPlayerUnit drives the player directly with a synthetic feed.
func TestStreamPlayerUnit(t *testing.T) {
	sched := simnet.NewScheduler(1)
	// 80 kbps media, 10 KB prebuffer, 100 KB total.
	p := apps.NewStreamPlayer(sched, 80_000, 10_000, 100_000)

	// Feed 10 KB at t=0: playback starts immediately.
	p.Feed(10_000)
	if st := p.Stats(); !st.Started || st.StartupDelay != 0 {
		t.Fatalf("after prebuffer: %+v", st)
	}
	// 10 KB plays for 1 s; with no more data the player stalls at t=1s.
	if err := sched.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Stalls != 1 || st.Finished {
		t.Fatalf("expected one stall: %+v", st)
	}
	// Refill everything at t=5s: stall time 4 s, then plays to the end.
	p.Feed(90_000)
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if !st.Finished {
		t.Fatalf("not finished: %+v", st)
	}
	if st.StallTime != 4*time.Second {
		t.Errorf("stall time = %v, want 4s", st.StallTime)
	}
	// Remaining 90 KB at 80 kbps = 9 s after the refill at t=5s.
	if st.FinishedAt != 14*time.Second {
		t.Errorf("finished at %v, want 14s", st.FinishedAt)
	}
}

func TestStreamUnknownMediaCloses(t *testing.T) {
	mc, err := core.BuildMC(core.MCConfig{Seed: 62, Devices: []device.Profile{device.ToshibaE740}})
	if err != nil {
		t.Fatalf("BuildMC: %v", err)
	}
	if err := apps.NewEntertainment().Register(mc.Host); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := apps.RegisterStreaming(mc.Host, mtcp.Options{}); err != nil {
		t.Fatalf("RegisterStreaming: %v", err)
	}
	player := apps.NewStreamPlayer(mc.Net.Sched, 128_000, 16<<10, 1<<20)
	closed := false
	apps.StreamMedia(mc.Clients[0].Stack, mc.Host.Node.ID, "no-such-clip", player, mtcp.Options{}, func(err error) {
		closed = true
	})
	if err := mc.Net.Sched.RunFor(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !closed {
		t.Fatal("connection not closed for unknown media")
	}
	if player.Stats().Started {
		t.Error("playback started with no data")
	}
}
