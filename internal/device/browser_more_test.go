package device_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"mcommerce/internal/device"
	"mcommerce/internal/imode"
	"mcommerce/internal/mtcp"
	"mcommerce/internal/wap"
)

func TestSubmitFormViaBothMiddlewares(t *testing.T) {
	topo := newBrowserTopo(t, device.ToshibaE740)

	// WAP path.
	var wapPage, imodePage *device.Page
	wap.Connect(wap.NewWTPAny(topo.station.Node(), wap.WTPConfig{}), topo.wapGW.Addr(), nil, func(s *wap.Session, err error) {
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		br := device.NewBrowser(topo.station, &device.WAPFetcher{Session: s})
		if br.Station() != topo.station {
			t.Error("Station() mismatch")
		}
		br.SubmitForm(topo.originAddr(), "/order", "application/x-www-form-urlencoded",
			[]byte("qty=3"), func(p *device.Page, err error) {
				if err != nil {
					t.Errorf("wap submit: %v", err)
					return
				}
				wapPage = p
			})
	})
	// i-mode path.
	cl := imode.NewClient(mtcp.MustNewStack(topo.station.Node()), topo.imodeGW.Addr(), mtcp.Options{})
	br2 := device.NewBrowser(topo.station, &device.IModeFetcher{Client: cl})
	br2.SubmitForm(topo.originAddr(), "/order", "application/x-www-form-urlencoded",
		[]byte("qty=5"), func(p *device.Page, err error) {
			if err != nil {
				t.Errorf("imode submit: %v", err)
				return
			}
			imodePage = p
		})
	if err := topo.net.Sched.RunFor(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if wapPage == nil || !strings.Contains(wapPage.Text, "ordered qty=3") {
		t.Errorf("wap page = %+v", wapPage)
	}
	if imodePage == nil || !strings.Contains(imodePage.Text, "ordered qty=5") {
		t.Errorf("imode page = %+v", imodePage)
	}
}

func TestFollowLink(t *testing.T) {
	topo := newBrowserTopo(t, device.ToshibaE740)
	cl := imode.NewClient(mtcp.MustNewStack(topo.station.Node()), topo.imodeGW.Addr(), mtcp.Options{})
	br := device.NewBrowser(topo.station, &device.IModeFetcher{Client: cl})

	// /shop links to /deals and /cart; register a /deals page to land on.
	var landed *device.Page
	var rangeErr error
	br.Browse(topo.originAddr(), "/shop", func(p *device.Page, err error) {
		if err != nil {
			t.Errorf("browse: %v", err)
			return
		}
		br.FollowLink(topo.originAddr(), p, 99, func(_ *device.Page, err error) {
			rangeErr = err
		})
		br.FollowLink(topo.originAddr(), p, 0, func(p2 *device.Page, err error) {
			if err != nil {
				t.Errorf("follow: %v", err)
				return
			}
			landed = p2
		})
	})
	if err := topo.net.Sched.RunFor(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(rangeErr, device.ErrNoSuchLink) {
		t.Errorf("out-of-range err = %v", rangeErr)
	}
	if landed == nil || landed.Title != "Deals" {
		t.Errorf("landed = %+v", landed)
	}
}

func TestPowerCycle(t *testing.T) {
	topo := newBrowserTopo(t, device.PalmI705)
	st := topo.station
	st.PowerOff()
	if st.PoweredOn() {
		t.Error("still on after PowerOff")
	}
	st.PowerOn()
	if !st.PoweredOn() {
		t.Error("not on after PowerOn")
	}
	// A dead battery keeps the station off even after PowerOn.
	st.DrainCPU(1000 * time.Hour)
	st.PowerOn()
	if st.PoweredOn() {
		t.Error("powered on with an empty battery")
	}
}

func TestDrainTxConsumes(t *testing.T) {
	topo := newBrowserTopo(t, device.Nokia9290)
	before := topo.station.Battery()
	topo.station.DrainTx(10 << 20)
	if topo.station.Battery() >= before {
		t.Error("DrainTx did not consume charge")
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
