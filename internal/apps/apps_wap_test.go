package apps_test

import (
	"testing"
	"time"

	"mcommerce/internal/apps"
	"mcommerce/internal/core"
	"mcommerce/internal/device"
	"mcommerce/internal/wap"
)

// TestServicesWorkOverWAPFetcher is the application-layer face of
// requirement 5 (program/data independence): the exact service clients
// used elsewhere over i-mode run unchanged over a WAP session — JSON
// payloads pass through the WAP gateway untranslated.
func TestServicesWorkOverWAPFetcher(t *testing.T) {
	mc, err := core.BuildMC(core.MCConfig{Seed: 31, Devices: []device.Profile{device.Nokia9290}})
	if err != nil {
		t.Fatalf("BuildMC: %v", err)
	}
	if err := apps.RegisterAll(mc.Host); err != nil {
		t.Fatalf("RegisterAll: %v", err)
	}

	var ticket apps.Ticket
	var record apps.PatientRecord
	var receipt apps.PayReceipt
	wap.Connect(wap.NewWTPAny(mc.Clients[0].Station.Node(), wap.WTPConfig{}), mc.WAP.Addr(), nil,
		func(s *wap.Session, err error) {
			if err != nil {
				t.Errorf("wap connect: %v", err)
				return
			}
			f := &device.WAPFetcher{Session: s}
			travel := &apps.TravelClient{Fetcher: f, Origin: mc.Host.Addr()}
			health := &apps.HealthClient{Fetcher: f, Origin: mc.Host.Addr()}
			pay := &apps.CommerceClient{Fetcher: f, Origin: mc.Host.Addr(), Key: []byte("payment-demo-key")}

			pay.OpenAccount("wap-user", "W", 5000, func(_ apps.AccountView, err error) {
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				pay.OpenAccount("wap-shop", "S", 0, func(_ apps.AccountView, err error) {
					if err != nil {
						t.Errorf("open: %v", err)
						return
					}
					pay.Pay("wap-o1", "wap-user", "wap-shop", 1200, 1, func(r apps.PayReceipt, err error) {
						if err != nil {
							t.Errorf("pay: %v", err)
							return
						}
						receipt = r
					})
				})
			})
			travel.Book("fl-200", "wap-user", func(tk apps.Ticket, err error) {
				if err != nil {
					t.Errorf("book: %v", err)
					return
				}
				ticket = tk
			})
			health.Login("nurse-okafor", "charts", func(err error) {
				if err != nil {
					t.Errorf("login: %v", err)
					return
				}
				health.Record("p-101", func(r apps.PatientRecord, err error) {
					if err != nil {
						t.Errorf("record: %v", err)
						return
					}
					record = r
				})
			})
		})
	if err := mc.Net.Sched.RunFor(5 * time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if receipt.PayerBalance != 3800 {
		t.Errorf("receipt = %+v", receipt)
	}
	if ticket.Itinerary != "fl-200" {
		t.Errorf("ticket = %+v", ticket)
	}
	if record.Name != "B. Silva" {
		t.Errorf("record = %+v", record)
	}
}

// TestRemainingClientSurface exercises the client methods the larger
// integration flows skip: resource listings and ticket retrieval.
func TestRemainingClientSurface(t *testing.T) {
	mc, err := core.BuildMC(core.MCConfig{Seed: 33, Devices: []device.Profile{device.ToshibaE740}})
	if err != nil {
		t.Fatalf("BuildMC: %v", err)
	}
	if err := apps.RegisterAll(mc.Host); err != nil {
		t.Fatalf("RegisterAll: %v", err)
	}
	f := &device.IModeFetcher{Client: mc.Clients[0].IMode}
	origin := mc.Host.Addr()

	erp := &apps.ERPClient{Fetcher: f, Origin: origin}
	travel := &apps.TravelClient{Fetcher: f, Origin: origin}

	var resources []apps.Resource
	erp.Resources(func(rs []apps.Resource, err error) {
		if err != nil {
			t.Errorf("resources: %v", err)
			return
		}
		resources = rs
	})
	var fetched apps.Ticket
	travel.Book("fl-300", "surface-test", func(tk apps.Ticket, err error) {
		if err != nil {
			t.Errorf("book: %v", err)
			return
		}
		travel.Ticket(tk.ID, func(tk2 apps.Ticket, err error) {
			if err != nil {
				t.Errorf("ticket: %v", err)
				return
			}
			fetched = tk2
		})
	})
	if err := mc.Net.Sched.RunFor(2 * time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(resources) != 3 {
		t.Errorf("resources = %v", resources)
	}
	if fetched.Passenger != "surface-test" {
		t.Errorf("ticket = %+v", fetched)
	}
}

// TestTrafficRouteFullyBlocked covers the no-path case: a closed ring of
// severe advisories around the destination leaves no route.
func TestTrafficRouteFullyBlocked(t *testing.T) {
	mc, err := core.BuildMC(core.MCConfig{Seed: 32, Devices: []device.Profile{device.ToshibaE740}})
	if err != nil {
		t.Fatalf("BuildMC: %v", err)
	}
	if err := apps.NewTraffic().Register(mc.Host); err != nil {
		t.Fatalf("Register: %v", err)
	}
	c := &apps.TrafficClient{
		Fetcher: &device.IModeFetcher{Client: mc.Clients[0].IMode},
		Origin:  mc.Host.Addr(),
	}
	// Ring of blocked cells around (5,5).
	ring := [][2]int{
		{4, 4}, {5, 4}, {6, 4},
		{4, 5}, {6, 5},
		{4, 6}, {5, 6}, {6, 6},
	}
	var route apps.RouteReply
	gotRoute := false
	var file func(i int)
	file = func(i int) {
		if i == len(ring) {
			c.Route(0, 0, 5, 5, func(r apps.RouteReply, err error) {
				if err != nil {
					t.Errorf("route: %v", err)
					return
				}
				route, gotRoute = r, true
			})
			return
		}
		c.Report(apps.Advisory{CellX: ring[i][0], CellY: ring[i][1], Severity: 5, Message: "closed"},
			func(_ apps.Advisory, err error) {
				if err != nil {
					t.Errorf("report: %v", err)
					return
				}
				file(i + 1)
			})
	}
	file(0)
	if err := mc.Net.Sched.RunFor(5 * time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !gotRoute {
		t.Fatal("no route reply")
	}
	if !route.Blocked || len(route.Waypoints) != 0 {
		t.Errorf("route = %+v, want blocked with no waypoints", route)
	}
}
