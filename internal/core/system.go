package core

import (
	"fmt"
	"time"

	"mcommerce/internal/cellular"
	"mcommerce/internal/device"
	"mcommerce/internal/imode"
	"mcommerce/internal/metrics"
	"mcommerce/internal/mobiledb"
	"mcommerce/internal/mtcp"
	"mcommerce/internal/simnet"
	"mcommerce/internal/trace"
	"mcommerce/internal/wap"
	"mcommerce/internal/webserver"
	"mcommerce/internal/wireless"
)

// BearerKind selects the radio technology of an MC deployment.
type BearerKind int

// Bearer kinds: a Table 4 WLAN or a Table 5 cellular network.
const (
	BearerWLAN BearerKind = iota + 1
	BearerCellular
)

// MCConfig parameterizes BuildMC. Zero values give the default deployment:
// 802.11b WLAN, both middlewares, all five Table 2 devices.
type MCConfig struct {
	Seed int64
	// Bearer picks WLAN or cellular; zero means WLAN.
	Bearer BearerKind
	// WLANStandard is the Table 4 standard for BearerWLAN (zero value
	// means 802.11b, the paper's "most popular wireless network").
	WLANStandard wireless.Standard
	// CellStandard is the Table 5 standard for BearerCellular (zero value
	// means GPRS). Packet-switched mobiles are attached automatically;
	// circuit-switched ones must PlaceCall.
	CellStandard cellular.Standard
	// Devices lists the mobile stations; nil means all of Table 2.
	Devices []device.Profile
	// DisableIMode drops the i-mode portal.
	DisableIMode bool
	// WAPConfig overrides gateway settings; nil means defaults.
	WAPConfig *wap.GatewayConfig
	// TokenKey seeds the host's token authority.
	TokenKey []byte
	// CC selects the TCP congestion control algorithm for every endpoint
	// the build creates — host web server, gateways and station stacks
	// (mtcp.CCReno or mtcp.CCCubic; empty means Reno). An explicit
	// WAPConfig TCP.CC wins over this for the WAP gateway.
	CC string
	// DBReplicas attaches a replicated data tier: that many replica nodes
	// beside the primary member on the host node (the cluster has
	// DBReplicas+1 members). Zero means no data tier. The tier resolves
	// conflicts last-writer-wins.
	DBReplicas int
}

// MobileClient is one mobile station inside a built MC system, with its
// bearer attachment and middleware clients.
type MobileClient struct {
	Station *device.Station
	// WLANStation is non-nil for WLAN deployments.
	WLANStation *wireless.Station
	// CellMobile is non-nil for cellular deployments.
	CellMobile *cellular.Mobile
	// Stack is the station's TCP stack (i-mode path).
	Stack *mtcp.Stack
	// IMode is the always-on client, nil when i-mode is disabled.
	IMode *imode.Client

	sys *MC
	// wtp is the station's WAP transaction endpoint, bound on first use.
	wtp *wap.WTP
}

// WTP returns the station's WAP transaction endpoint, binding it on first
// use. Every WSP session the station opens runs over it, so a station
// holds one port and one wap.wtp.<station> metric scope however many
// sessions it opens, and a world that never uses WAP binds none.
func (m *MobileClient) WTP() *wap.WTP {
	if m.wtp == nil {
		m.wtp = wap.NewWTPAny(m.Station.Node(), m.sys.wapCfg.WTP)
	}
	return m.wtp
}

// BrowserIMode returns a microbrowser over the i-mode middleware.
func (m *MobileClient) BrowserIMode() *device.Browser {
	return device.NewBrowser(m.Station, &device.IModeFetcher{Client: m.IMode})
}

// ConnectWAP establishes a WSP session and hands back a microbrowser over
// the WAP middleware.
func (m *MobileClient) ConnectWAP(done func(*device.Browser, error)) {
	wap.Connect(m.WTP(), m.sys.WAP.Addr(), nil,
		func(s *wap.Session, err error) {
			if err != nil {
				done(nil, err)
				return
			}
			done(device.NewBrowser(m.Station, &device.WAPFetcher{Session: s}), nil)
		})
}

// MC is a built, running mobile commerce system: the live pieces plus the
// structural model for Figure 2.
type MC struct {
	Net *simnet.Network
	Sys *System

	Host        *Host
	DataTier    *DataTier // nil unless MCConfig.DBReplicas > 0
	GatewayNode *simnet.Node
	WAP         *wap.Gateway
	IMode       *imode.Gateway
	WLAN        *wireless.LAN
	Cell        *cellular.Net
	Clients     []*MobileClient

	// LANLink (host—router) and WANLink (router—gateway) are the wired
	// segments, exposed as fault-injection targets.
	LANLink *simnet.Link
	WANLink *simnet.Link

	wapCfg wap.GatewayConfig

	// End-to-end transaction latency distributions (core.txn.wap.latency /
	// core.txn.imode.latency), observed by the Transact helpers.
	txnWAP   metrics.Histogram
	txnIMode metrics.Histogram
}

// Metrics returns the world's telemetry registry (owned by mc.Net).
func (mc *MC) Metrics() *metrics.Registry { return mc.Net.Metrics }

// BuildMC assembles a complete mobile commerce system:
//
//	stations ))) gateway(AP/BTS + WAP + i-mode) --WAN-- router --LAN-- host
//
// following Figure 2's six components. Application handlers are registered
// on the returned Host by the caller (or by internal/apps services).
func BuildMC(cfg MCConfig) (*MC, error) {
	if cfg.Bearer == 0 {
		cfg.Bearer = BearerWLAN
	}
	if cfg.WLANStandard == (wireless.Standard{}) {
		cfg.WLANStandard = wireless.IEEE80211b
	}
	if cfg.CellStandard == (cellular.Standard{}) {
		cfg.CellStandard = cellular.GPRS
	}
	if cfg.Devices == nil {
		cfg.Devices = device.Profiles()
	}
	if len(cfg.TokenKey) == 0 {
		cfg.TokenKey = []byte("mc-system-token-key")
	}

	net := simnet.NewNetwork(simnet.NewScheduler(cfg.Seed))
	mc := &MC{Net: net, Sys: NewSystem(ModelMC)}
	txn := net.Metrics.Scope("core.txn")
	mc.txnWAP = txn.Histogram("wap.latency")
	mc.txnIMode = txn.Histogram("imode.latency")

	// tcp carries the deployment-wide transport tuning to every endpoint
	// built below.
	tcp := mtcp.Options{CC: cfg.CC}

	// Host computers on the wired LAN.
	host, err := NewHost(net, "host", cfg.TokenKey, tcp)
	if err != nil {
		return nil, fmt.Errorf("core: host: %w", err)
	}
	mc.Host = host

	// Wired networks: LAN between host and router, WAN to the gateway.
	router := net.NewNode("wired-router")
	router.Forwarding = true
	lanCfg := simnet.LAN
	lanCfg.Name = "lan"
	wanCfg := simnet.WAN
	wanCfg.Name = "wan"
	lan := simnet.Connect(host.Node, router, lanCfg)
	host.Node.SetDefaultRoute(lan.IfaceA())

	gw := net.NewNode("gateway")
	gw.Forwarding = true
	wan := simnet.Connect(router, gw, wanCfg)
	router.SetRoute(host.Node.ID, lan.IfaceB())
	router.SetDefaultRoute(wan.IfaceA())
	gw.SetRoute(host.Node.ID, wan.IfaceB())
	mc.GatewayNode = gw
	mc.LANLink = lan
	mc.WANLink = wan

	// Replicated data tier: primary member on the host node, replicas
	// behind the router. Stations reach any member's sync endpoint through
	// the gateway.
	if cfg.DBReplicas > 0 {
		dt, err := BuildDataTier(net, host.Node, router, DataTierConfig{
			Replicas: cfg.DBReplicas,
			Policy:   mobiledb.PolicyLWW,
		})
		if err != nil {
			return nil, fmt.Errorf("core: data tier: %w", err)
		}
		for _, nd := range dt.Nodes {
			gw.SetRoute(nd.ID, wan.IfaceB())
		}
		mc.DataTier = dt
	}

	// Mobile middleware on the gateway node.
	gwStack, err := mtcp.NewStack(gw)
	if err != nil {
		return nil, fmt.Errorf("core: gateway stack: %w", err)
	}
	wcfg := wap.DefaultGatewayConfig()
	if cfg.WAPConfig != nil {
		wcfg = *cfg.WAPConfig
	}
	if wcfg.TCP.CC == "" {
		wcfg.TCP.CC = cfg.CC
	}
	mc.wapCfg = wcfg
	mc.WAP, err = wap.NewGateway(gw, gwStack, wcfg)
	if err != nil {
		return nil, fmt.Errorf("core: wap gateway: %w", err)
	}
	if !cfg.DisableIMode {
		mc.IMode, err = imode.NewGateway(gw, gwStack, tcp)
		if err != nil {
			return nil, fmt.Errorf("core: imode gateway: %w", err)
		}
	}

	// Wireless networks: the gateway node doubles as AP or base station.
	switch cfg.Bearer {
	case BearerWLAN:
		mc.WLAN = wireless.NewLAN(net, cfg.WLANStandard, wireless.DefaultConfig())
		mc.WLAN.AddAP(gw, wireless.Position{})
	case BearerCellular:
		mc.Cell = cellular.New(net, cfg.CellStandard, cellular.DefaultConfig())
		mc.Cell.AddCell(gw, wireless.Position{})
	default:
		return nil, fmt.Errorf("core: unknown bearer %d", cfg.Bearer)
	}

	// Mobile stations, placed on a compact grid well inside the bearer's
	// coverage (any fleet size stays in range of the single AP/cell).
	for i, prof := range cfg.Devices {
		st := device.NewStation(net, prof)
		client := &MobileClient{Station: st, sys: mc}
		pos := wireless.Position{X: 10 + float64(i%10)*4, Y: float64(i/10) * 4}
		switch cfg.Bearer {
		case BearerWLAN:
			client.WLANStation = mc.WLAN.AddStation(st.Node(), pos)
		case BearerCellular:
			client.CellMobile = mc.Cell.AddMobile(st.Node(), wireless.Position{X: 500 + float64(i)*100})
			if cfg.CellStandard.Switching == cellular.PacketSwitched && cfg.CellStandard.SupportsData() {
				if err := client.CellMobile.Attach(nil); err != nil {
					return nil, fmt.Errorf("core: attach %s: %w", prof.Name(), err)
				}
			}
		}
		client.Stack, err = mtcp.NewStack(st.Node())
		if err != nil {
			return nil, fmt.Errorf("core: station stack: %w", err)
		}
		if mc.IMode != nil {
			client.IMode = imode.NewClient(client.Stack, mc.IMode.Addr(), tcp)
		}
		mc.Clients = append(mc.Clients, client)
	}

	mc.buildModelGraph()
	return mc, nil
}

// buildModelGraph records the Figure 2 structure for validation and
// description.
func (mc *MC) buildModelGraph() {
	s := mc.Sys
	app := s.Add(KindApplication, "MC application programs", nil)
	hostC := s.Add(KindHostComputer, "web server + database server", mc.Host)
	wired := s.Add(KindWiredNetwork, "wired LAN/WAN", nil)

	var bearer *Component
	if mc.WLAN != nil {
		bearer = s.Add(KindWirelessNetwork, "wireless LAN ("+mc.WLAN.Standard().Name+")", mc.WLAN)
	} else {
		bearer = s.Add(KindWirelessNetwork, "cellular ("+mc.Cell.Standard().Name+")", mc.Cell)
	}

	mw := []*Component{s.Add(KindMiddleware, "WAP gateway", mc.WAP)}
	if mc.IMode != nil {
		c := s.Add(KindMiddleware, "i-mode portal", mc.IMode)
		c.Optional = true // the second middleware is the dashed box
		mw = append(mw, c)
	}

	var stations []*Component
	for _, cl := range mc.Clients {
		stations = append(stations, s.Add(KindMobileStation, cl.Station.Name(), cl.Station))
	}

	s.Link(hostC, wired)
	s.Link(wired, bearer)
	for _, m := range mw {
		s.Link(m, wired)
		s.Link(m, bearer)
		for _, st := range stations {
			s.Link(st, m)
		}
	}
	for _, st := range stations {
		s.Link(st, bearer)
		s.Link(app, st)
	}
	s.Link(app, hostC)
}

// Transaction is one end-to-end mobile commerce interaction's outcome.
type Transaction struct {
	Page    *device.Page
	Latency time.Duration
	Err     error
}

// TransactIMode runs a browse transaction from client i over i-mode and
// reports the outcome.
func (mc *MC) TransactIMode(i int, path string, done func(Transaction)) {
	cl := mc.Clients[i]
	start := mc.Net.Sched.Now()
	// The root span brackets exactly the interval the latency histogram
	// observes, so a trace's per-layer breakdown sums to the recorded
	// core.txn.imode.latency value.
	tr := mc.Net.Tracer
	root := tr.StartTrace("core.txn.imode", trace.LayerStation)
	prev := tr.Swap(root)
	defer tr.Swap(prev)
	cl.BrowserIMode().Browse(mc.Host.Addr(), path, func(p *device.Page, err error) {
		lat := mc.Net.Sched.Now() - start
		mc.txnIMode.Observe(lat)
		tr.Finish(root)
		done(Transaction{Page: p, Latency: lat, Err: err})
	})
}

// TransactWAP runs a browse transaction from client i over WAP (including
// session establishment) and reports the outcome.
func (mc *MC) TransactWAP(i int, path string, done func(Transaction)) {
	cl := mc.Clients[i]
	start := mc.Net.Sched.Now()
	tr := mc.Net.Tracer
	root := tr.StartTrace("core.txn.wap", trace.LayerStation)
	prev := tr.Swap(root)
	defer tr.Swap(prev)
	cl.ConnectWAP(func(br *device.Browser, err error) {
		if err != nil {
			lat := mc.Net.Sched.Now() - start
			mc.txnWAP.Observe(lat)
			tr.Finish(root)
			done(Transaction{Latency: lat, Err: err})
			return
		}
		// The connect callback fires during delivery of the session reply;
		// re-establish the root so the browse's invoke starts under it.
		p0 := tr.Swap(root)
		defer tr.Swap(p0)
		br.Browse(mc.Host.Addr(), path, func(p *device.Page, err error) {
			lat := mc.Net.Sched.Now() - start
			mc.txnWAP.Observe(lat)
			tr.Finish(root)
			done(Transaction{Page: p, Latency: lat, Err: err})
		})
	})
}

// ECConfig parameterizes BuildEC.
type ECConfig struct {
	Seed int64
	// Clients is the number of desktop client computers; zero means 3.
	Clients int
	// TokenKey seeds the host's token authority.
	TokenKey []byte
}

// ECClient is one desktop client computer in the EC baseline.
type ECClient struct {
	Node *simnet.Node
	HTTP *webserver.Client
}

// EC is a built electronic commerce system (Figure 1's baseline).
type EC struct {
	Net     *simnet.Network
	Sys     *System
	Host    *Host
	Clients []*ECClient

	// txn is the end-to-end request latency distribution
	// (core.txn.ec.latency), observed by Transact.
	txn metrics.Histogram
}

// BuildEC assembles the four-component electronic commerce system:
// desktop clients --LAN/WAN-- host computers.
func BuildEC(cfg ECConfig) (*EC, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 3
	}
	if len(cfg.TokenKey) == 0 {
		cfg.TokenKey = []byte("ec-system-token-key")
	}
	net := simnet.NewNetwork(simnet.NewScheduler(cfg.Seed))
	ec := &EC{Net: net, Sys: NewSystem(ModelEC)}
	ec.txn = net.Metrics.Scope("core.txn").Histogram("ec.latency")

	host, err := NewHost(net, "host", cfg.TokenKey, mtcp.Options{})
	if err != nil {
		return nil, err
	}
	ec.Host = host
	router := net.NewNode("wired-router")
	router.Forwarding = true
	lanCfg := simnet.LAN
	lanCfg.Name = "lan"
	lan := simnet.Connect(host.Node, router, lanCfg)
	host.Node.SetDefaultRoute(lan.IfaceA())
	router.SetRoute(host.Node.ID, lan.IfaceB())

	for i := 0; i < cfg.Clients; i++ {
		node := net.NewNode(fmt.Sprintf("desktop-%d", i+1))
		wanCfg := simnet.WAN
		wanCfg.Name = fmt.Sprintf("wan-desktop-%d", i+1)
		wan := simnet.Connect(router, node, wanCfg)
		node.SetDefaultRoute(wan.IfaceB())
		router.SetRoute(node.ID, wan.IfaceA())
		stack, err := mtcp.NewStack(node)
		if err != nil {
			return nil, err
		}
		ec.Clients = append(ec.Clients, &ECClient{
			Node: node,
			HTTP: webserver.NewClient(stack, mtcp.Options{}),
		})
	}

	s := ec.Sys
	app := s.Add(KindApplication, "EC application programs", nil)
	hostC := s.Add(KindHostComputer, "web server + database server", host)
	wired := s.Add(KindWiredNetwork, "wired LAN/WAN", nil)
	for _, cl := range ec.Clients {
		c := s.Add(KindClientComputer, cl.Node.Name, cl)
		s.Link(c, wired)
		s.Link(app, c)
	}
	s.Link(hostC, wired)
	s.Link(app, hostC)
	return ec, nil
}

// Transact runs one GET from EC client i and reports latency.
func (ec *EC) Transact(i int, path string, done func(*webserver.Response, time.Duration, error)) {
	start := ec.Net.Sched.Now()
	tr := ec.Net.Tracer
	root := tr.StartTrace("core.txn.ec", trace.LayerStation)
	prev := tr.Swap(root)
	defer tr.Swap(prev)
	ec.Clients[i].HTTP.Get(ec.Host.Addr(), path, nil, func(r *webserver.Response, err error) {
		lat := ec.Net.Sched.Now() - start
		ec.txn.Observe(lat)
		tr.Finish(root)
		done(r, lat, err)
	})
}
