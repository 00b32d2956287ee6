package device_test

import (
	"bytes"
	"testing"
	"time"

	"mcommerce/internal/device"
	"mcommerce/internal/imode"
	"mcommerce/internal/mtcp"
	"mcommerce/internal/wap"
)

// TestSubmitFormViaBothMiddlewares posts a form through each middleware's
// fetcher and checks the origin's reply comes back.
func TestSubmitFormViaBothMiddlewares(t *testing.T) {
	topo := newBrowserTopo(t, device.ToshibaE740)

	var wapReply, imodeReply []byte
	wap.Connect(wap.NewWTPAny(topo.station.Node(), wap.WTPConfig{}), topo.wapGW.Addr(), nil, func(s *wap.Session, err error) {
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		f := &device.WAPFetcher{Session: s}
		f.Submit(topo.originAddr(), "/order", "application/x-www-form-urlencoded",
			[]byte("qty=3"), func(payload []byte, _ string, err error) {
				if err != nil {
					t.Errorf("wap submit: %v", err)
					return
				}
				wapReply = payload
			})
	})
	cl := imode.NewClient(mtcp.MustNewStack(topo.station.Node()), topo.imodeGW.Addr(), mtcp.Options{})
	f := &device.IModeFetcher{Client: cl}
	f.Submit(topo.originAddr(), "/order", "application/x-www-form-urlencoded",
		[]byte("qty=5"), func(payload []byte, _ string, err error) {
			if err != nil {
				t.Errorf("imode submit: %v", err)
				return
			}
			imodeReply = payload
		})
	if err := topo.net.Sched.RunFor(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !bytes.Contains(wapReply, []byte("ordered qty=3")) {
		t.Errorf("wap reply = %q", wapReply)
	}
	if !bytes.Contains(imodeReply, []byte("ordered qty=5")) {
		t.Errorf("imode reply = %q", imodeReply)
	}
}

// TestPowerCycle checks that a station boots on and that an empty battery
// powers it off.
func TestPowerCycle(t *testing.T) {
	topo := newBrowserTopo(t, device.PalmI705)
	st := topo.station
	if !st.PoweredOn() {
		t.Error("not on after boot")
	}
	st.DrainCPU(1000 * time.Hour)
	if st.PoweredOn() {
		t.Error("powered on with an empty battery")
	}
}

func TestBrowserOpaqueContent(t *testing.T) {
	topo := newBrowserTopo(t, device.ToshibaE740)
	cl := imode.NewClient(mtcp.MustNewStack(topo.station.Node()), topo.imodeGW.Addr(), mtcp.Options{})
	br := device.NewBrowser(topo.station, &device.IModeFetcher{Client: cl})
	var page *device.Page
	br.Browse(topo.originAddr(), "/blob", func(p *device.Page, err error) {
		if err != nil {
			t.Errorf("browse: %v", err)
			return
		}
		page = p
	})
	if err := topo.net.Sched.RunFor(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if page == nil {
		t.Fatal("no page")
	}
	// Binary content lays out as an opaque page: no cards, no text.
	if page.Cards != 0 || page.Text != "" {
		t.Errorf("opaque page = %+v", page)
	}
	if page.WireBytes == 0 {
		t.Error("no bytes accounted")
	}
}
