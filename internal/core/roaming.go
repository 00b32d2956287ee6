package core

import (
	"fmt"

	"mcommerce/internal/device"
	"mcommerce/internal/imode"
	"mcommerce/internal/mobileip"
	"mcommerce/internal/mtcp"
	"mcommerce/internal/simnet"
	"mcommerce/internal/wap"
	"mcommerce/internal/wireless"
)

// RoamingMCConfig parameterizes BuildRoamingMC.
type RoamingMCConfig struct {
	Seed int64
	// WLANStandard is the radio standard of both subnets (zero means
	// 802.11b).
	WLANStandard wireless.Standard
	// Device is the roaming handset (zero means the Compaq iPAQ).
	Device device.Profile
	// AuthKey is the Mobile IP security association (nil disables
	// registration authentication).
	AuthKey []byte
	// WAPConfig overrides the home gateway's middleware settings.
	WAPConfig *wap.GatewayConfig
	// CC selects the TCP congestion control algorithm for every endpoint
	// (empty means Reno); an explicit WAPConfig TCP.CC wins for the
	// gateway.
	CC string
}

// RoamingMC is a mobile commerce deployment spanning two wireless subnets
// with Mobile IP mobility (the paper's Section 5.2 in the context of the
// full Figure 2 system):
//
//	host --LAN-- router --WAN-- home gateway   (AP1 + home agent + WAP + i-mode)
//	             router --WAN-- foreign gateway (AP2 + foreign agent)
//
// The station starts on the home subnet. Roam moves it under the foreign
// AP: an L3 move, not an L2 handoff — the home agent then tunnels all its
// traffic to the foreign agent, so sessions keyed to the station's home
// address (WSP sessions, TCP connections) survive.
type RoamingMC struct {
	Net  *simnet.Network
	Sys  *System
	Host *Host

	Router       *simnet.Node
	HomeGW       *simnet.Node
	ForeignGW    *simnet.Node
	WAP          *wap.Gateway
	IMode        *imode.Gateway
	HA           *mobileip.HomeAgent
	FA           *mobileip.ForeignAgent
	HomeLAN      *wireless.LAN
	ForeignLAN   *wireless.LAN
	Station      *device.Station
	HomeRadio    *wireless.Station
	ForeignRadio *wireless.Station
	MIP          *mobileip.Client
	Stack        *mtcp.Stack
	IModeClient  *imode.Client

	wapCfg wap.WTPConfig
	// wtp is the station's WAP transaction endpoint, bound on the first
	// ConnectWAP and shared by every later session.
	wtp *wap.WTP

	// foreignAPPos is where the foreign AP sits; Roam moves the station
	// next to it.
	foreignAPPos wireless.Position
}

// BuildRoamingMC assembles the two-subnet roaming deployment.
func BuildRoamingMC(cfg RoamingMCConfig) (*RoamingMC, error) {
	if cfg.WLANStandard == (wireless.Standard{}) {
		cfg.WLANStandard = wireless.IEEE80211b
	}
	if cfg.Device == (device.Profile{}) {
		cfg.Device = device.CompaqIPAQH3870
	}
	net := simnet.NewNetwork(simnet.NewScheduler(cfg.Seed))
	r := &RoamingMC{Net: net, Sys: NewSystem(ModelMC)}

	tcp := mtcp.Options{CC: cfg.CC}
	host, err := NewHost(net, "host", []byte("roaming-token-key"), tcp)
	if err != nil {
		return nil, err
	}
	r.Host = host

	r.Router = net.NewNode("wired-router")
	r.Router.Forwarding = true
	lan := simnet.Connect(host.Node, r.Router, simnet.LAN)
	host.Node.SetDefaultRoute(lan.IfaceA())
	r.Router.SetRoute(host.Node.ID, lan.IfaceB())

	r.HomeGW = net.NewNode("home-gateway")
	r.ForeignGW = net.NewNode("foreign-gateway")
	r.HomeGW.Forwarding = true
	r.ForeignGW.Forwarding = true
	wanH := simnet.Connect(r.Router, r.HomeGW, simnet.WAN)
	wanF := simnet.Connect(r.Router, r.ForeignGW, simnet.WAN)
	r.HomeGW.SetDefaultRoute(wanH.IfaceB())
	r.ForeignGW.SetDefaultRoute(wanF.IfaceB())
	r.Router.SetRoute(r.HomeGW.ID, wanH.IfaceA())
	r.Router.SetRoute(r.ForeignGW.ID, wanF.IfaceA())

	// Middleware and home agent live on the home gateway.
	gwStack, err := mtcp.NewStack(r.HomeGW)
	if err != nil {
		return nil, err
	}
	wcfg := wap.DefaultGatewayConfig()
	if cfg.WAPConfig != nil {
		wcfg = *cfg.WAPConfig
	}
	if wcfg.TCP.CC == "" {
		wcfg.TCP.CC = cfg.CC
	}
	r.wapCfg = wcfg.WTP
	if r.WAP, err = wap.NewGatewayWithStack(r.HomeGW, gwStack, wcfg); err != nil {
		return nil, err
	}
	if r.IMode, err = imode.NewGatewayWithStack(r.HomeGW, gwStack, imode.GatewayConfig{TCP: tcp}); err != nil {
		return nil, err
	}
	r.HA = mobileip.NewHomeAgent(r.HomeGW, cfg.AuthKey)
	r.FA = mobileip.NewForeignAgent(r.ForeignGW)

	// Two wireless subnets far enough apart that only one AP is ever in
	// range: this is an L3 move, not an L2 handoff.
	r.foreignAPPos = wireless.Position{X: 10 * cfg.WLANStandard.RangeMax}
	r.HomeLAN = wireless.NewLAN(net, cfg.WLANStandard, wireless.DefaultConfig())
	r.ForeignLAN = wireless.NewLAN(net, cfg.WLANStandard, wireless.DefaultConfig())
	r.HomeLAN.AddAP(r.HomeGW, wireless.Position{})
	r.ForeignLAN.AddAP(r.ForeignGW, r.foreignAPPos)

	// The station: one node, one radio per subnet.
	r.Station = device.NewStation(net, cfg.Device)
	start := wireless.Position{X: 10}
	r.HomeRadio = r.HomeLAN.AddStation(r.Station.Node(), start)
	r.ForeignRadio = r.ForeignLAN.AddStation(r.Station.Node(), start)
	// AddStation repoints the default route each time; at home, traffic
	// leaves through the home radio.
	r.Station.Node().SetDefaultRoute(r.HomeRadio.Radio())
	// The internet routes the station's address toward its home subnet.
	r.Router.SetRoute(r.Station.Node().ID, wanH.IfaceA())

	r.MIP = mobileip.NewClient(r.Station.Node(), mobileip.Config{
		HomeAgent: simnet.Addr{Node: r.HomeGW.ID, Port: mobileip.MobileIPPort},
		AuthKey:   cfg.AuthKey,
	})
	if r.Stack, err = mtcp.NewStack(r.Station.Node()); err != nil {
		return nil, err
	}
	r.IModeClient = imode.NewClient(r.Stack, r.IMode.Addr(), tcp)

	r.buildGraph()
	return r, nil
}

func (r *RoamingMC) buildGraph() {
	s := r.Sys
	app := s.Add(KindApplication, "MC application programs", nil)
	hostC := s.Add(KindHostComputer, "web server + database server", r.Host)
	wired := s.Add(KindWiredNetwork, "wired LAN/WAN", nil)
	home := s.Add(KindWirelessNetwork, "home WLAN + home agent", r.HomeLAN)
	foreign := s.AddOptional(KindWirelessNetwork, "foreign WLAN + foreign agent", r.ForeignLAN)
	mw := s.Add(KindMiddleware, "WAP gateway + i-mode portal", r.WAP)
	st := s.Add(KindMobileStation, r.Station.Name(), r.Station)
	s.Link(hostC, wired)
	s.Link(wired, home)
	s.Link(wired, foreign)
	s.Link(mw, wired)
	s.Link(mw, home)
	s.Link(st, mw)
	s.Link(st, home)
	s.Link(st, foreign)
	s.Link(app, st)
	s.Link(app, hostC)
}

// AtHome reports whether the station is associated with the home subnet.
func (r *RoamingMC) AtHome() bool { return r.HomeRadio.Associated() }

// ConnectWAP establishes a WSP session through the home gateway, over the
// station's one WAP transaction endpoint.
func (r *RoamingMC) ConnectWAP(done func(*device.Browser, *wap.Session, error)) {
	if r.wtp == nil {
		r.wtp = wap.NewWTPAny(r.Station.Node(), r.wapCfg)
	}
	wap.Connect(r.wtp, r.WAP.Addr(), nil, func(s *wap.Session, err error) {
		if err != nil {
			done(nil, nil, err)
			return
		}
		done(device.NewBrowser(r.Station, &device.WAPFetcher{Session: s}), s, nil)
	})
}

// BrowserIMode returns a microbrowser over i-mode.
func (r *RoamingMC) BrowserIMode() *device.Browser {
	return device.NewBrowser(r.Station, &device.IModeFetcher{Client: r.IModeClient})
}

// Roam moves the station out of home coverage into the foreign subnet and
// runs the Mobile IP registration. done fires when the binding is
// installed (traffic then flows via the HA→FA tunnel).
func (r *RoamingMC) Roam(done func(error)) {
	dest := wireless.Position{X: r.foreignAPPos.X + 10}
	r.HomeRadio.MoveTo(dest)
	r.ForeignRadio.MoveTo(dest)
	if !r.ForeignRadio.Associated() {
		done(fmt.Errorf("core: foreign AP not in range at %v", dest))
		return
	}
	r.Station.Node().SetDefaultRoute(r.ForeignRadio.Radio())
	r.MIP.Register(r.FA.Addr(), done)
}

// ReturnHome moves the station back under the home AP and deregisters.
func (r *RoamingMC) ReturnHome(done func(error)) {
	start := wireless.Position{X: 10}
	r.HomeRadio.MoveTo(start)
	r.ForeignRadio.MoveTo(start)
	if !r.HomeRadio.Associated() {
		done(fmt.Errorf("core: home AP not in range"))
		return
	}
	r.Station.Node().SetDefaultRoute(r.HomeRadio.Radio())
	r.MIP.Deregister(done)
}
