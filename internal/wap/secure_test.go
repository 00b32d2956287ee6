package wap_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mcommerce/internal/markup"
	"mcommerce/internal/simnet"
	"mcommerce/internal/wap"
)

func secureGatewayCfg(psk []byte, require bool) wap.GatewayConfig {
	cfg := wap.DefaultGatewayConfig()
	cfg.PSK = psk
	cfg.RequireWTLS = require
	return cfg
}

func TestSecureSessionEndToEnd(t *testing.T) {
	psk := []byte("air-interface-key")
	w := newWAPTopo(t, 31, 0, secureGatewayCfg(psk, false))
	var deck *markup.Deck
	var sess *wap.Session
	wap.ConnectSecure(wap.NewWTPAny(w.mobile, wap.WTPConfig{}), w.gateway.Addr(), nil, psk, func(s *wap.Session, err error) {
		if err != nil {
			t.Errorf("ConnectSecure: %v", err)
			return
		}
		sess = s
		if !s.Secured() {
			t.Error("session not marked secured")
		}
		s.Get(w.originURL("/shop"), func(rep *wap.Reply, err error) {
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			d, derr := markup.DecodeWMLC(rep.Payload)
			if derr != nil {
				t.Errorf("decode: %v", derr)
				return
			}
			deck = d
		})
	})
	if err := w.net.Sched.RunFor(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if deck == nil {
		t.Fatal("no deck over secure session")
	}
	if !strings.Contains(deck.WML(), "Catalog") {
		t.Error("content lost over secure session")
	}
	_ = sess
}

func TestSecureSessionHidesPlaintextOnAir(t *testing.T) {
	psk := []byte("air-interface-key")
	w := newWAPTopo(t, 32, 0, secureGatewayCfg(psk, false))
	// The secret is a query value the mobile sends; it must never appear
	// in any packet body crossing the gateway.
	const secret = "patient-record-4711"
	leaked := false
	inspect := func(p *simnet.Packet) bool {
		// WTP carries PDUs as Body values; on a secure session every PDU
		// travels as a sealed record, so a %+v rendering of any packet
		// body must never contain the plaintext secret.
		if strings.Contains(fmt.Sprintf("%+v", p.Body), secret) {
			leaked = true
		}
		return true
	}
	w.gwNode.AddTap(inspect)

	ok := false
	wap.ConnectSecure(wap.NewWTPAny(w.mobile, wap.WTPConfig{}), w.gateway.Addr(), nil, psk, func(s *wap.Session, err error) {
		if err != nil {
			t.Errorf("ConnectSecure: %v", err)
			return
		}
		s.Get(wap.URL{Origin: simnet.Addr{Node: w.origin.ID, Port: 80}, Path: "/shop?id=" + secret},
			func(rep *wap.Reply, err error) {
				ok = err == nil
			})
	})
	if err := w.net.Sched.RunFor(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ok {
		t.Fatal("secure request failed")
	}
	if leaked {
		t.Error("plaintext secret visible on the air interface")
	}
}

func TestSecureConnectWrongKeyFails(t *testing.T) {
	w := newWAPTopo(t, 33, 0, secureGatewayCfg([]byte("right-key"), false))
	var gotErr error
	fired := false
	wap.ConnectSecure(wap.NewWTPAny(w.mobile, wap.WTPConfig{}), w.gateway.Addr(), nil, []byte("wrong-key"),
		func(s *wap.Session, err error) { gotErr, fired = err, true })
	if err := w.net.Sched.RunFor(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired || gotErr == nil {
		t.Fatalf("connect with wrong key: fired=%v err=%v", fired, gotErr)
	}
}

func TestSecureConnectToPlainGatewayFails(t *testing.T) {
	w := newWAPTopo(t, 34, 0, wap.DefaultGatewayConfig()) // no PSK
	var gotErr error
	wap.ConnectSecure(wap.NewWTPAny(w.mobile, wap.WTPConfig{}), w.gateway.Addr(), nil, []byte("key"),
		func(s *wap.Session, err error) { gotErr = err })
	if err := w.net.Sched.RunFor(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(gotErr, wap.ErrNoWTLS) {
		t.Errorf("err = %v, want ErrNoWTLS", gotErr)
	}
}

func TestRequireWTLSRefusesPlaintext(t *testing.T) {
	psk := []byte("mandatory-key")
	w := newWAPTopo(t, 35, 0, secureGatewayCfg(psk, true))
	var plainErr error
	wap.Connect(wap.NewWTPAny(w.mobile, wap.WTPConfig{}), w.gateway.Addr(), nil, func(s *wap.Session, err error) {
		plainErr = err
	})
	if err := w.net.Sched.RunFor(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(plainErr, wap.ErrSecurityRequired) {
		t.Errorf("plaintext connect err = %v, want ErrSecurityRequired", plainErr)
	}
	// The secure path still works.
	ok := false
	wap.ConnectSecure(wap.NewWTPAny(w.mobile, wap.WTPConfig{}), w.gateway.Addr(), nil, psk, func(s *wap.Session, err error) {
		if err != nil {
			t.Errorf("secure connect: %v", err)
			return
		}
		s.Get(w.originURL("/shop"), func(rep *wap.Reply, err error) { ok = err == nil && rep.Status == 200 })
	})
	if err := w.net.Sched.RunFor(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ok {
		t.Error("secure session failed on RequireWTLS gateway")
	}
}

func TestSecureSuspendResumeDisconnect(t *testing.T) {
	psk := []byte("k")
	w := newWAPTopo(t, 36, 0, secureGatewayCfg(psk, false))
	sequence := ""
	wap.ConnectSecure(wap.NewWTPAny(w.mobile, wap.WTPConfig{}), w.gateway.Addr(), nil, psk, func(s *wap.Session, err error) {
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		s.Suspend(func(err error) {
			if err != nil {
				t.Errorf("suspend: %v", err)
				return
			}
			sequence += "S"
			s.Resume(func(err error) {
				if err != nil {
					t.Errorf("resume: %v", err)
					return
				}
				sequence += "R"
				s.Disconnect(func(err error) {
					if err != nil {
						t.Errorf("disconnect: %v", err)
						return
					}
					sequence += "D"
				})
			})
		})
	})
	if err := w.net.Sched.RunFor(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sequence != "SRD" {
		t.Errorf("sequence = %q", sequence)
	}
}

func TestSecureOverheadVisibleOnAir(t *testing.T) {
	psk := []byte("k")
	measure := func(secure bool) uint64 {
		var cfg wap.GatewayConfig
		if secure {
			cfg = secureGatewayCfg(psk, false)
		} else {
			cfg = wap.DefaultGatewayConfig()
		}
		w := newWAPTopo(t, 37, 0, cfg)
		connect := func(done func(*wap.Session, error)) {
			if secure {
				wap.ConnectSecure(wap.NewWTPAny(w.mobile, wap.WTPConfig{}), w.gateway.Addr(), nil, psk, done)
			} else {
				wap.Connect(wap.NewWTPAny(w.mobile, wap.WTPConfig{}), w.gateway.Addr(), nil, done)
			}
		}
		connect(func(s *wap.Session, err error) {
			if err != nil {
				t.Errorf("connect: %v", err)
				return
			}
			s.Get(w.originURL("/shop"), func(*wap.Reply, error) {})
		})
		if err := w.net.Sched.RunFor(time.Minute); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return w.wireless.IfaceA().TxBytes + w.wireless.IfaceB().TxBytes
	}
	plain := measure(false)
	sec := measure(true)
	if sec <= plain {
		t.Errorf("secure air bytes %d not above plaintext %d", sec, plain)
	}
}
