package device_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"mcommerce/internal/device"
	"mcommerce/internal/imode"
	"mcommerce/internal/mtcp"
	"mcommerce/internal/simnet"
	"mcommerce/internal/wap"
	"mcommerce/internal/webserver"
)

func TestTable2Rows(t *testing.T) {
	// Vendor/device, OS, processor and RAM/ROM exactly as Table 2 prints.
	tests := []struct {
		p        device.Profile
		name     string
		os       string
		cpu      string
		ram, rom int
	}{
		{device.CompaqIPAQH3870, "Compaq iPAQ H3870", "MS Pocket PC 2002", "206 MHz Intel StrongARM 32-bit RISC", 64 << 20, 32 << 20},
		{device.Nokia9290, "Nokia 9290 Communicator", "Symbian OS", "32-bit ARM9 RISC", 16 << 20, 8 << 20},
		{device.PalmI705, "Palm i705", "Palm OS 4.1", "33 MHz Motorola Dragonball VZ", 8 << 20, 4 << 20},
		{device.SonyCliePEGNR70V, "SONY Clie PEG-NR70V", "Palm OS 4.1", "66 MHz Motorola Dragonball Super VZ", 16 << 20, 8 << 20},
		{device.ToshibaE740, "Toshiba E740", "MS Pocket PC 2002", "400 MHz Intel PXA250", 64 << 20, 32 << 20},
	}
	for _, tt := range tests {
		p := tt.p
		if p.Name() != tt.name || p.OS.Name != tt.os || p.CPUName != tt.cpu ||
			p.RAMBytes != tt.ram || p.ROMBytes != tt.rom {
			t.Errorf("%s: got %+v", tt.name, p)
		}
	}
	if len(device.Profiles()) != 5 {
		t.Errorf("Profiles() = %d rows", len(device.Profiles()))
	}
}

func TestThreeMajorOperatingSystems(t *testing.T) {
	// §4.1: every Table 2 device runs one of the three major brands.
	brands := map[string]bool{"Palm": true, "Microsoft": true, "Symbian": true}
	for _, p := range device.Profiles() {
		if !brands[p.OS.Vendor] {
			t.Errorf("%s runs %s, not a major brand", p.Name(), p.OS.Vendor)
		}
	}
}

func TestProcessingDelayScalesWithCPU(t *testing.T) {
	net := simnet.NewNetwork(simnet.NewScheduler(1))
	slow := device.NewStation(net, device.PalmI705)    // 33 MHz
	fast := device.NewStation(net, device.ToshibaE740) // 400 MHz
	const n = 10_000
	ds, df := slow.ProcessingDelay(n), fast.ProcessingDelay(n)
	if ds <= df {
		t.Errorf("33 MHz (%v) should be slower than 400 MHz (%v)", ds, df)
	}
	ratio := float64(ds) / float64(df)
	want := 400.0 / 33.0
	if ratio < want*0.9 || ratio > want*1.1 {
		t.Errorf("delay ratio = %.1f, want ≈ %.1f", ratio, want)
	}
}

func TestPalmOSBatteryLifeTwiceRivals(t *testing.T) {
	// §4.1: "long battery life, approximately twice that of its rivals".
	// Same chassis numbers, different OS factor -> half the drain.
	net := simnet.NewNetwork(simnet.NewScheduler(1))
	palm := device.NewStation(net, device.Profile{
		Vendor: "X", Model: "P", OS: device.PalmOS41, CPUMHz: 100,
		RAMBytes: 16 << 20, BatterymAh: 1000,
	})
	rival := device.NewStation(net, device.Profile{
		Vendor: "X", Model: "R", OS: device.PocketPC2002, CPUMHz: 100,
		RAMBytes: 16 << 20, BatterymAh: 1000,
	})
	for i := 0; i < 100; i++ {
		palm.DrainRx(100_000)
		palm.DrainCPU(time.Second)
		rival.DrainRx(100_000)
		rival.DrainCPU(time.Second)
	}
	palmUsed := 1 - palm.Battery()
	rivalUsed := 1 - rival.Battery()
	if palmUsed <= 0 || rivalUsed <= 0 {
		t.Fatal("no drain recorded")
	}
	ratio := rivalUsed / palmUsed
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("rival/palm drain ratio = %.2f, want ≈ 2", ratio)
	}
}

func TestMemoryAllocation(t *testing.T) {
	net := simnet.NewNetwork(simnet.NewScheduler(1))
	st := device.NewStation(net, device.PalmI705) // 8 MB RAM, 4 MB free
	free := st.FreeRAM()
	if err := st.AllocRAM(free); err != nil {
		t.Fatalf("alloc all: %v", err)
	}
	if err := st.AllocRAM(1); !errors.Is(err, device.ErrOutOfMemory) {
		t.Errorf("over-alloc: %v", err)
	}
	st.ReleaseRAM(free)
	if st.FreeRAM() != free {
		t.Errorf("FreeRAM after release = %d, want %d", st.FreeRAM(), free)
	}
	// Release never exceeds the pool.
	st.ReleaseRAM(1 << 30)
	if st.FreeRAM() != free {
		t.Errorf("FreeRAM clamped = %d, want %d", st.FreeRAM(), free)
	}
}

// browserTopo wires: station --link-- gateway(WAP+imode) --link-- origin.
type browserTopo struct {
	net     *simnet.Network
	station *device.Station
	gwNode  *simnet.Node
	origin  *simnet.Node
	wapGW   *wap.Gateway
	imodeGW *imode.Gateway
}

func newBrowserTopo(t testing.TB, p device.Profile) *browserTopo {
	t.Helper()
	net := simnet.NewNetwork(simnet.NewScheduler(1))
	st := device.NewStation(net, p)
	gw := net.NewNode("gateway")
	org := net.NewNode("origin")
	gw.Forwarding = true

	wl := simnet.Connect(st.Node(), gw, simnet.LinkConfig{Rate: 100 * simnet.Kbps, Delay: 50 * time.Millisecond})
	wd := simnet.Connect(gw, org, simnet.LAN)
	st.Node().SetDefaultRoute(wl.IfaceA())
	org.SetDefaultRoute(wd.IfaceB())
	gw.SetRoute(st.Node().ID, wl.IfaceB())
	gw.SetRoute(org.ID, wd.IfaceA())

	gwStack := mtcp.MustNewStack(gw)
	wapGW, err := wap.NewGateway(gw, gwStack, wap.DefaultGatewayConfig())
	if err != nil {
		t.Fatalf("wap gateway: %v", err)
	}
	imodeGW, err := imode.NewGateway(gw, gwStack, mtcp.Options{})
	if err != nil {
		t.Fatalf("imode gateway: %v", err)
	}
	srv, err := webserver.New(mtcp.MustNewStack(org), 80, mtcp.Options{})
	if err != nil {
		t.Fatalf("origin: %v", err)
	}
	srv.Handle("/shop", func(r *webserver.Request) *webserver.Response {
		return webserver.HTML(`<html><head><title>WidgetShop</title></head>
			<body><h1>Shop</h1><p>See <a href="/deals">deals</a> and <a href="/cart">cart</a>.</p></body></html>`)
	})
	srv.Handle("/order", func(r *webserver.Request) *webserver.Response {
		return webserver.HTML("<html><body><p>ordered " + string(r.Body) + "</p></body></html>")
	})
	srv.Handle("/blob", func(r *webserver.Request) *webserver.Response {
		return webserver.NewResponse(200, webserver.TypeBytes, []byte{1, 2, 3, 4})
	})
	return &browserTopo{net: net, station: st, gwNode: gw, origin: org, wapGW: wapGW, imodeGW: imodeGW}
}

func (b *browserTopo) originAddr() simnet.Addr { return simnet.Addr{Node: b.origin.ID, Port: 80} }

func TestBrowseViaWAP(t *testing.T) {
	topo := newBrowserTopo(t, device.SonyCliePEGNR70V)
	var page *device.Page
	wap.Connect(wap.NewWTPAny(topo.station.Node(), wap.WTPConfig{}), topo.wapGW.Addr(), nil, func(s *wap.Session, err error) {
		if err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		br := device.NewBrowser(topo.station, &device.WAPFetcher{Session: s})
		br.Browse(topo.originAddr(), "/shop", func(p *device.Page, err error) {
			if err != nil {
				t.Errorf("Browse: %v", err)
				return
			}
			page = p
		})
	})
	if err := topo.net.Sched.RunFor(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if page == nil {
		t.Fatal("no page")
	}
	if page.ContentType != webserver.TypeWMLC {
		t.Errorf("content type = %s", page.ContentType)
	}
	if page.Title != "Shop" && page.Title != "WidgetShop" {
		t.Errorf("title = %q", page.Title)
	}
	if !strings.Contains(page.Text, "deals") || len(page.Links) != 2 {
		t.Errorf("page text/links = %q %v", page.Text, page.Links)
	}
	if page.RenderTime <= 0 || page.Screenfuls < 1 {
		t.Errorf("render accounting: %+v", page)
	}
	if topo.station.Battery() >= 1 {
		t.Error("browsing should drain the battery")
	}
}

func TestBrowseViaIMode(t *testing.T) {
	topo := newBrowserTopo(t, device.Nokia9290)
	cl := imode.NewClient(mtcp.MustNewStack(topo.station.Node()), topo.imodeGW.Addr(), mtcp.Options{})
	br := device.NewBrowser(topo.station, &device.IModeFetcher{Client: cl})
	var page *device.Page
	br.Browse(topo.originAddr(), "/shop", func(p *device.Page, err error) {
		if err != nil {
			t.Errorf("Browse: %v", err)
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
	if page.ContentType != webserver.TypeCHTML {
		t.Errorf("content type = %s", page.ContentType)
	}
	if len(page.Links) != 2 {
		t.Errorf("links = %v", page.Links)
	}
}

func TestBrowseOutOfMemory(t *testing.T) {
	tiny := device.PalmI705
	tiny.RAMBytes = 256 // pathological handset: 128 B free for content
	topo := newBrowserTopo(t, tiny)
	cl := imode.NewClient(mtcp.MustNewStack(topo.station.Node()), topo.imodeGW.Addr(), mtcp.Options{})
	br := device.NewBrowser(topo.station, &device.IModeFetcher{Client: cl})
	var gotErr error
	br.Browse(topo.originAddr(), "/shop", func(p *device.Page, err error) { gotErr = err })
	if err := topo.net.Sched.RunFor(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(gotErr, device.ErrOutOfMemory) {
		t.Errorf("err = %v, want ErrOutOfMemory", gotErr)
	}
}

func TestBrowsePoweredOff(t *testing.T) {
	topo := newBrowserTopo(t, device.PalmI705)
	cl := imode.NewClient(mtcp.MustNewStack(topo.station.Node()), topo.imodeGW.Addr(), mtcp.Options{})
	br := device.NewBrowser(topo.station, &device.IModeFetcher{Client: cl})
	topo.station.DrainCPU(1000 * time.Hour)
	var gotErr error
	br.Browse(topo.originAddr(), "/shop", func(p *device.Page, err error) { gotErr = err })
	if !errors.Is(gotErr, device.ErrPoweredOff) {
		t.Errorf("err = %v, want ErrPoweredOff", gotErr)
	}
}

func TestScreenfulsSmallerScreenMorePages(t *testing.T) {
	net := simnet.NewNetwork(simnet.NewScheduler(1))
	small := device.NewStation(net, device.PalmI705)         // 160x160
	large := device.NewStation(net, device.SonyCliePEGNR70V) // 320x480
	const text = 4000
	if small.ScreenfulsFor(text) <= large.ScreenfulsFor(text) {
		t.Errorf("small screen %d screenfuls vs large %d",
			small.ScreenfulsFor(text), large.ScreenfulsFor(text))
	}
}
