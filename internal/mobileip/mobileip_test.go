package mobileip_test

import (
	"testing"
	"time"

	"mcommerce/internal/mobileip"
	"mcommerce/internal/mtcp"
	"mcommerce/internal/simnet"
)

// roamTopo builds the canonical Mobile IP test internetwork:
//
//	correspondent -- homeRouter(HA) -- backbone -- foreignRouter(FA) -- mobile
//
// The mobile's home is the home router's subnet: every router except the FA
// routes the mobile's ID toward home. The mobile is physically attached to
// the foreign router (it has "moved").
type roamTopo struct {
	net                        *simnet.Network
	corr, home, foreign, mob   *simnet.Node
	ha                         *mobileip.HomeAgent
	fa                         *mobileip.ForeignAgent
	client                     *mobileip.Client
	lCorr, lBack, lMob, lHomeM *simnet.Link
}

func newRoamTopo(t testing.TB, authKey []byte, clientKey []byte) *roamTopo {
	t.Helper()
	net := simnet.NewNetwork(simnet.NewScheduler(1))
	corr := net.NewNode("correspondent")
	home := net.NewNode("home-router")
	foreign := net.NewNode("foreign-router")
	mob := net.NewNode("mobile")

	lCorr := simnet.Connect(corr, home, simnet.LAN)
	lBack := simnet.Connect(home, foreign, simnet.WAN)
	lMob := simnet.Connect(foreign, mob, simnet.LAN) // the "foreign subnet"

	corr.SetDefaultRoute(lCorr.IfaceA())
	home.SetRoute(corr.ID, lCorr.IfaceB())
	home.SetDefaultRoute(lBack.IfaceA())
	foreign.SetDefaultRoute(lBack.IfaceB())
	foreign.SetRoute(mob.ID, lMob.IfaceA())
	mob.SetDefaultRoute(lMob.IfaceB())

	ha := mobileip.NewHomeAgent(home, authKey)
	fa := mobileip.NewForeignAgent(foreign)
	client := mobileip.NewClient(mob, mobileip.Config{
		HomeAgent: simnet.Addr{Node: home.ID, Port: mobileip.MobileIPPort},
		AuthKey:   clientKey,
	})
	return &roamTopo{
		net: net, corr: corr, home: home, foreign: foreign, mob: mob,
		ha: ha, fa: fa, client: client,
		lCorr: lCorr, lBack: lBack, lMob: lMob,
	}
}

func TestRegistrationInstallsBinding(t *testing.T) {
	r := newRoamTopo(t, nil, nil)
	var regErr error
	fired := false
	r.client.Register(r.fa.Addr(), func(err error) { regErr, fired = err, true })
	if err := r.net.Sched.RunUntil(5 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired || regErr != nil {
		t.Fatalf("registration: fired=%v err=%v", fired, regErr)
	}
	b, ok := r.ha.Binding(r.mob.ID)
	if !ok {
		t.Fatal("no binding installed")
	}
	if b.CareOf != r.fa.Addr() {
		t.Errorf("care-of = %v, want %v", b.CareOf, r.fa.Addr())
	}
	if r.fa.Stats().Relayed != 1 {
		t.Errorf("FA relayed = %d, want 1", r.fa.Stats().Relayed)
	}
}

func TestTunnelDeliversToRoamingMobile(t *testing.T) {
	r := newRoamTopo(t, nil, nil)
	got := 0
	r.mob.Bind(simnet.ProtoControl, func(p *simnet.Packet) { got++ })

	r.client.Register(r.fa.Addr(), func(err error) {
		if err != nil {
			t.Errorf("register: %v", err)
			return
		}
		// Correspondent sends to the mobile's HOME address; the HA must
		// intercept and tunnel.
		r.corr.Send(&simnet.Packet{
			Src: simnet.Addr{Node: r.corr.ID}, Dst: simnet.Addr{Node: r.mob.ID},
			Proto: simnet.ProtoControl, Bytes: 300,
		})
	})
	if err := r.net.Sched.RunUntil(5 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 1 {
		t.Fatalf("mobile received %d packets, want 1", got)
	}
	if r.ha.Stats().Tunneled != 1 {
		t.Errorf("HA tunneled = %d, want 1", r.ha.Stats().Tunneled)
	}
	if r.fa.Stats().Decapsulated != 1 {
		t.Errorf("FA decapsulated = %d, want 1", r.fa.Stats().Decapsulated)
	}
}

func TestReverseTriangleRoutesDirectly(t *testing.T) {
	r := newRoamTopo(t, nil, nil)
	got := 0
	r.corr.Bind(simnet.ProtoControl, func(p *simnet.Packet) { got++ })
	r.client.Register(r.fa.Addr(), func(err error) {
		if err != nil {
			t.Errorf("register: %v", err)
			return
		}
		r.mob.Send(&simnet.Packet{
			Src: simnet.Addr{Node: r.mob.ID}, Dst: simnet.Addr{Node: r.corr.ID},
			Proto: simnet.ProtoControl, Bytes: 300,
		})
	})
	if err := r.net.Sched.RunUntil(5 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 1 {
		t.Fatalf("correspondent received %d, want 1", got)
	}
	// Mobile-to-correspondent traffic is never tunneled.
	if r.ha.Stats().Tunneled != 0 {
		t.Errorf("HA tunneled %d reverse packets", r.ha.Stats().Tunneled)
	}
}

func TestAuthenticationRejectsBadKey(t *testing.T) {
	r := newRoamTopo(t, []byte("home-secret"), []byte("wrong-secret"))
	var regErr error
	fired := false
	r.client.Register(r.fa.Addr(), func(err error) { regErr, fired = err, true })
	if err := r.net.Sched.RunUntil(10 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired || regErr != mobileip.ErrDenied {
		t.Fatalf("registration err = %v (fired=%v), want ErrDenied", regErr, fired)
	}
	if _, ok := r.ha.Binding(r.mob.ID); ok {
		t.Error("binding installed despite bad auth")
	}
	if r.ha.Stats().AuthFailures == 0 {
		t.Error("auth failure not counted")
	}
}

func TestAuthenticationAcceptsMatchingKey(t *testing.T) {
	key := []byte("shared-secret")
	r := newRoamTopo(t, key, key)
	var regErr error
	r.client.Register(r.fa.Addr(), func(err error) { regErr = err })
	if err := r.net.Sched.RunUntil(5 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if regErr != nil {
		t.Fatalf("registration with valid key: %v", regErr)
	}
}

func TestBindingLifetimeExpires(t *testing.T) {
	r := newRoamTopo(t, nil, nil)
	r.client.Register(r.fa.Addr(), nil)
	if err := r.net.Sched.RunUntil(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	b, ok := r.ha.Binding(r.mob.ID)
	if !ok {
		t.Fatal("binding missing after registration")
	}
	if b.ExpiresAt <= time.Minute {
		t.Fatalf("binding expires at %v, want a lifetime of minutes", b.ExpiresAt)
	}
	if err := r.net.Sched.RunUntil(b.ExpiresAt - time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, ok := r.ha.Binding(r.mob.ID); !ok {
		t.Fatal("binding missing before expiry")
	}
	if err := r.net.Sched.RunUntil(b.ExpiresAt + time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, ok := r.ha.Binding(r.mob.ID); ok {
		t.Error("binding survived past lifetime")
	}
}

func TestRegistrationTimesOutWithoutAgents(t *testing.T) {
	net := simnet.NewNetwork(simnet.NewScheduler(1))
	mob := net.NewNode("mobile")
	// No links at all: requests go nowhere.
	client := mobileip.NewClient(mob, mobileip.Config{
		HomeAgent: simnet.Addr{Node: 99, Port: mobileip.MobileIPPort},
	})
	var regErr error
	fired := false
	client.Register(simnet.Addr{Node: 98, Port: mobileip.MobileIPPort}, func(err error) {
		regErr, fired = err, true
	})
	if err := net.Sched.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired || regErr != mobileip.ErrRegistrationTimeout {
		t.Errorf("err = %v (fired=%v), want ErrRegistrationTimeout", regErr, fired)
	}
}

// TestTCPSurvivesRoaming is the paper's headline Mobile IP property:
// "transparency above the IP layer, including the maintenance of active TCP
// connections". A TCP connection is opened while the mobile is home; the
// mobile then moves to the foreign subnet mid-transfer and the transfer
// completes over the tunnel.
func TestTCPSurvivesRoaming(t *testing.T) {
	net := simnet.NewNetwork(simnet.NewScheduler(7))
	corr := net.NewNode("correspondent")
	home := net.NewNode("home-router")
	foreign := net.NewNode("foreign-router")
	mob := net.NewNode("mobile")

	lCorr := simnet.Connect(corr, home, simnet.LAN)
	lBack := simnet.Connect(home, foreign, simnet.WAN)
	lHomeM := simnet.Connect(home, mob, simnet.LAN)   // home subnet attachment
	lForM := simnet.Connect(foreign, mob, simnet.LAN) // foreign subnet attachment
	lForM.IfaceB().Up = false                         // initially detached there

	corr.SetDefaultRoute(lCorr.IfaceA())
	home.SetRoute(corr.ID, lCorr.IfaceB())
	home.SetRoute(mob.ID, lHomeM.IfaceA())
	home.SetDefaultRoute(lBack.IfaceA())
	foreign.SetDefaultRoute(lBack.IfaceB())
	foreign.SetRoute(mob.ID, lForM.IfaceA())
	mob.SetDefaultRoute(lHomeM.IfaceB())

	ha := mobileip.NewHomeAgent(home, nil)
	fa := mobileip.NewForeignAgent(foreign)
	client := mobileip.NewClient(mob, mobileip.Config{
		HomeAgent: simnet.Addr{Node: home.ID, Port: mobileip.MobileIPPort},
	})

	cs := mtcp.MustNewStack(corr)
	ms := mtcp.MustNewStack(mob)

	const size = 400_000
	var got int
	if err := ms.Listen(80, mtcp.Options{}, func(c *mtcp.Conn) {
		c.OnData(func(b []byte) { got += len(b) })
	}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	cs.Dial(simnet.Addr{Node: mob.ID, Port: 80}, mtcp.Options{}, func(c *mtcp.Conn, err error) {
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		b := make([]byte, size)
		c.Send(b)
	})

	// Mid-transfer, the mobile moves: home link drops, foreign link comes
	// up, Mobile IP registration runs, traffic resumes through the tunnel.
	net.Sched.At(50*time.Millisecond, func() {
		lHomeM.IfaceB().Up = false
		lForM.IfaceB().Up = true
		mob.SetDefaultRoute(lForM.IfaceB())
		client.Register(fa.Addr(), func(err error) {
			if err != nil {
				t.Errorf("register during roam: %v", err)
			}
		})
	})

	if err := net.Sched.RunUntil(2 * time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != size {
		t.Fatalf("transfer incomplete across roam: %d/%d", got, size)
	}
	if ha.Stats().Tunneled == 0 {
		t.Error("no packets were tunneled — mobility never engaged")
	}
	_ = lBack
}
