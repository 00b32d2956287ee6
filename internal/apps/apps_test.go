package apps_test

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"mcommerce/internal/apps"
	"mcommerce/internal/core"
	"mcommerce/internal/database"
	"mcommerce/internal/device"
	"mcommerce/internal/mobiledb"
)

// appsTopo is an MC system with the given services registered (all
// Table 1 services when none are given) and one i-mode browser fetcher per
// client.
type appsTopo struct {
	mc       *core.MC
	fetchers []device.Fetcher
}

func newAppsTopo(t testing.TB, seed int64, services ...apps.Service) *appsTopo {
	t.Helper()
	mc, err := core.BuildMC(core.MCConfig{
		Seed:    seed,
		Devices: []device.Profile{device.CompaqIPAQH3870, device.ToshibaE740, device.Nokia9290},
	})
	if err != nil {
		t.Fatalf("BuildMC: %v", err)
	}
	if len(services) == 0 {
		services = apps.All()
	}
	for _, s := range services {
		if err := s.Register(mc.Host); err != nil {
			t.Fatalf("register %s: %v", s.Category(), err)
		}
	}
	a := &appsTopo{mc: mc}
	for _, cl := range mc.Clients {
		a.fetchers = append(a.fetchers, &device.IModeFetcher{Client: cl.IMode})
	}
	return a
}

func (a *appsTopo) run(t testing.TB) {
	t.Helper()
	if err := a.mc.Net.Sched.RunFor(2 * time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestTable1Metadata(t *testing.T) {
	// The eight rows of Table 1, exactly as printed.
	want := [][3]string{
		{"Commerce", "Mobile transactions and payments", "Businesses"},
		{"Education", "Mobile classrooms and labs", "Schools and training centers"},
		{"Enterprise resource planning", "Resource management", "All companies"},
		{"Entertainment", "Music/video/game downloads", "Entertainment industry"},
		{"Health care", "Patient record accessing", "Hospitals and nursing homes"},
		{"Inventory tracking and dispatching", "Product tracking and dispatching", "Delivery services and transportation"},
		{"Traffic", "A global positioning, directions, and traffic advisories", "Transportation and auto industries"},
		{"Travel and ticketing", "Travel management", "Travel industry and ticket sales"},
	}
	all := apps.All()
	if len(all) != len(want) {
		t.Fatalf("All() = %d services, want %d", len(all), len(want))
	}
	for i, s := range all {
		if s.Category() != want[i][0] || s.Application() != want[i][1] || s.Clients() != want[i][2] {
			t.Errorf("row %d = %q/%q/%q, want %v", i, s.Category(), s.Application(), s.Clients(), want[i])
		}
	}
}

func TestCommercePaymentFlow(t *testing.T) {
	a := newAppsTopo(t, 1)
	c := &apps.CommerceClient{Fetcher: a.fetchers[0], Origin: a.mc.Host.Addr(), Key: []byte("payment-demo-key")}

	var receipt apps.PayReceipt
	var finalPayee apps.AccountView
	c.OpenAccount("alice", "Alice", 10_000, func(_ apps.AccountView, err error) {
		if err != nil {
			t.Errorf("open alice: %v", err)
			return
		}
		c.OpenAccount("shop", "WidgetShop", 0, func(_ apps.AccountView, err error) {
			if err != nil {
				t.Errorf("open shop: %v", err)
				return
			}
			c.Pay("order-1", "alice", "shop", 2_500, 1, func(r apps.PayReceipt, err error) {
				if err != nil {
					t.Errorf("pay: %v", err)
					return
				}
				receipt = r
				c.Balance("shop", func(v apps.AccountView, err error) {
					if err != nil {
						t.Errorf("balance: %v", err)
						return
					}
					finalPayee = v
				})
			})
		})
	})
	a.run(t)
	if receipt.OrderID != "order-1" || receipt.PayerBalance != 7_500 {
		t.Errorf("receipt = %+v", receipt)
	}
	if finalPayee.Balance != 2_500 {
		t.Errorf("payee balance = %d", finalPayee.Balance)
	}
}

func TestCommerceRejectsForgedSignature(t *testing.T) {
	a := newAppsTopo(t, 2)
	c := &apps.CommerceClient{Fetcher: a.fetchers[0], Origin: a.mc.Host.Addr(), Key: []byte("WRONG-key")}
	var payErr error
	c.OpenAccount("alice", "Alice", 1000, func(_ apps.AccountView, err error) {
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		c.OpenAccount("shop", "Shop", 0, func(_ apps.AccountView, err error) {
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			c.Pay("order-x", "alice", "shop", 100, 1, func(_ apps.PayReceipt, err error) {
				payErr = err
			})
		})
	})
	a.run(t)
	if payErr == nil {
		t.Fatal("forged payment accepted")
	}
	if !strings.Contains(payErr.Error(), "401") {
		t.Errorf("pay err = %v, want 401", payErr)
	}
}

func TestCommerceInsufficientFunds(t *testing.T) {
	a := newAppsTopo(t, 3)
	c := &apps.CommerceClient{Fetcher: a.fetchers[0], Origin: a.mc.Host.Addr(), Key: []byte("payment-demo-key")}
	var payErr error
	c.OpenAccount("poor", "P", 10, func(_ apps.AccountView, err error) {
		c.OpenAccount("shop", "S", 0, func(_ apps.AccountView, err error) {
			c.Pay("order-y", "poor", "shop", 100, 1, func(_ apps.PayReceipt, err error) {
				payErr = err
			})
		})
	})
	a.run(t)
	if payErr == nil || !strings.Contains(payErr.Error(), "402") {
		t.Errorf("err = %v, want 402", payErr)
	}
}

func TestEducationEnrollAndQuiz(t *testing.T) {
	a := newAppsTopo(t, 4)
	c := &apps.EducationClient{Fetcher: a.fetchers[0], Origin: a.mc.Host.Addr()}
	var result apps.QuizResult
	c.Courses(func(courses []apps.Course, err error) {
		if err != nil || len(courses) < 2 {
			t.Errorf("courses: %v %v", courses, err)
			return
		}
		c.Enroll("mc201", "student-1", func(co apps.Course, err error) {
			if err != nil || co.Enrolled != 1 {
				t.Errorf("enroll: %+v %v", co, err)
				return
			}
			c.Quiz("mc201", func(q apps.Quiz, err error) {
				if err != nil || len(q.Questions) != 2 {
					t.Errorf("quiz: %+v %v", q, err)
					return
				}
				c.SubmitQuiz("mc201", "student-1", []string{"6", "no"}, func(r apps.QuizResult, err error) {
					if err != nil {
						t.Errorf("submit: %v", err)
						return
					}
					result = r
				})
			})
		})
	})
	a.run(t)
	if result.Total != 2 || result.Correct != 1 {
		t.Errorf("result = %+v, want 1/2", result)
	}
}

func TestEducationRequiresEnrollment(t *testing.T) {
	a := newAppsTopo(t, 5)
	c := &apps.EducationClient{Fetcher: a.fetchers[0], Origin: a.mc.Host.Addr()}
	var subErr error
	c.SubmitQuiz("mc201", "ghost", []string{"6", "yes"}, func(_ apps.QuizResult, err error) {
		subErr = err
	})
	a.run(t)
	if subErr == nil || !strings.Contains(subErr.Error(), "403") {
		t.Errorf("err = %v, want 403", subErr)
	}
}

func TestERPAllocationLifecycle(t *testing.T) {
	a := newAppsTopo(t, 6)
	c := &apps.ERPClient{Fetcher: a.fetchers[0], Origin: a.mc.Host.Addr()}
	var overErr error
	var after apps.Resource
	c.Allocate("truck", "crew-1", 10, func(r apps.Resource, err error) {
		if err != nil || r.Allocated != 10 {
			t.Errorf("allocate: %+v %v", r, err)
			return
		}
		// Over-allocate: only 12 trucks exist.
		c.Allocate("truck", "crew-2", 5, func(_ apps.Resource, err error) {
			overErr = err
			c.Release("truck", "crew-1", 4, func(r apps.Resource, err error) {
				if err != nil {
					t.Errorf("release: %v", err)
					return
				}
				after = r
			})
		})
	})
	a.run(t)
	if overErr == nil || !strings.Contains(overErr.Error(), "409") {
		t.Errorf("over-allocation err = %v", overErr)
	}
	if after.Allocated != 6 {
		t.Errorf("after release = %+v", after)
	}
}

func TestEntertainmentDownload(t *testing.T) {
	a := newAppsTopo(t, 7)
	c := &apps.EntertainmentClient{Fetcher: a.fetchers[1], Origin: a.mc.Host.Addr()}
	var body []byte
	c.Catalog(func(items []apps.MediaItem, err error) {
		if err != nil || len(items) != 4 {
			t.Errorf("catalog: %v %v", items, err)
			return
		}
		c.Download("game1", func(b []byte, err error) {
			if err != nil {
				t.Errorf("download: %v", err)
				return
			}
			body = b
		})
	})
	a.run(t)
	if len(body) != 64<<10 {
		t.Fatalf("downloaded %d bytes, want %d", len(body), 64<<10)
	}
	if !apps.VerifyMediaContent(body) {
		t.Error("content corrupted in transit")
	}
}

// Every catalog title downloads intact, largest first, so the smaller
// ones are cut from the pattern the largest grew.
func TestEntertainmentDownloadsEveryTitle(t *testing.T) {
	a := newAppsTopo(t, 7)
	c := &apps.EntertainmentClient{Fetcher: a.fetchers[0], Origin: a.mc.Host.Addr()}
	got := map[string][]byte{}
	var items []apps.MediaItem
	var next func(i int)
	next = func(i int) {
		if i == len(items) {
			return
		}
		c.Download(items[i].ID, func(b []byte, err error) {
			if err != nil {
				t.Errorf("download %s: %v", items[i].ID, err)
				return
			}
			got[items[i].ID] = b
			next(i + 1)
		})
	}
	c.Catalog(func(list []apps.MediaItem, err error) {
		if err != nil {
			t.Errorf("catalog: %v", err)
			return
		}
		items = list
		slices.SortFunc(items, func(x, y apps.MediaItem) int { return int(y.Bytes - x.Bytes) })
		next(0)
	})
	a.run(t)
	if len(items) != 4 || len(got) != len(items) {
		t.Fatalf("downloaded %d of %d titles", len(got), len(items))
	}
	for _, it := range items {
		b := got[it.ID]
		if int64(len(b)) != it.Bytes || !apps.VerifyMediaContent(b) {
			t.Errorf("%s: %d bytes (want %d), verified %v", it.ID, len(b), it.Bytes, apps.VerifyMediaContent(b))
		}
	}
}

func TestHealthAuthenticationFlow(t *testing.T) {
	a := newAppsTopo(t, 8)
	c := &apps.HealthClient{Fetcher: a.fetchers[0], Origin: a.mc.Host.Addr()}
	intruder := &apps.HealthClient{Fetcher: a.fetchers[1], Origin: a.mc.Host.Addr()}

	var rec apps.PatientRecord
	var intruderErr, badLoginErr error
	// Unauthenticated access must fail.
	intruder.Record("p-100", func(_ apps.PatientRecord, err error) { intruderErr = err })
	// Wrong password must fail.
	intruder.Login("dr-yang", "wrong", func(err error) { badLoginErr = err })
	// Proper flow.
	c.Login("dr-yang", "rounds", func(err error) {
		if err != nil {
			t.Errorf("login: %v", err)
			return
		}
		c.AddNote("p-100", "ECG ordered", func(_ apps.PatientRecord, err error) {
			if err != nil {
				t.Errorf("note: %v", err)
				return
			}
			c.Record("p-100", func(r apps.PatientRecord, err error) {
				if err != nil {
					t.Errorf("record: %v", err)
					return
				}
				rec = r
			})
		})
	})
	a.run(t)
	if intruderErr == nil || !strings.Contains(intruderErr.Error(), "401") {
		t.Errorf("intruder err = %v, want 401", intruderErr)
	}
	if badLoginErr == nil {
		t.Error("bad password accepted")
	}
	if !strings.Contains(rec.Notes, "ECG ordered") {
		t.Errorf("note not applied: %+v", rec)
	}
}

func TestInventoryTrackAndDispatch(t *testing.T) {
	a := newAppsTopo(t, 9)
	dispatcher := &apps.InventoryClient{Fetcher: a.fetchers[0], Origin: a.mc.Host.Addr()}
	courier := &apps.InventoryClient{Fetcher: a.fetchers[1], Origin: a.mc.Host.Addr()}

	var assignment apps.DispatchReply
	var finalState apps.PackageView
	// Two couriers at different distances; near one must win.
	courier.ReportPosition(apps.TrackUpdate{Courier: "c-near", X: 10, Y: 10}, func(err error) {
		if err != nil {
			t.Errorf("report near: %v", err)
			return
		}
		courier.ReportPosition(apps.TrackUpdate{Courier: "c-far", X: 900, Y: 900}, func(err error) {
			if err != nil {
				t.Errorf("report far: %v", err)
				return
			}
			dispatcher.NewPackage("pkg-1", 50, 50, func(_ apps.PackageView, err error) {
				if err != nil {
					t.Errorf("new package: %v", err)
					return
				}
				dispatcher.Dispatch("pkg-1", func(r apps.DispatchReply, err error) {
					if err != nil {
						t.Errorf("dispatch: %v", err)
						return
					}
					assignment = r
					// The courier picks it up and delivers it.
					courier.ReportPosition(apps.TrackUpdate{
						Courier: "c-near", X: 50, Y: 50, Package: "pkg-1", Delivered: true,
					}, func(err error) {
						if err != nil {
							t.Errorf("deliver: %v", err)
							return
						}
						dispatcher.Where("pkg-1", func(v apps.PackageView, err error) {
							if err != nil {
								t.Errorf("where: %v", err)
								return
							}
							finalState = v
						})
					})
				})
			})
		})
	})
	a.run(t)
	if assignment.Courier != "c-near" {
		t.Errorf("assignment = %+v, want c-near", assignment)
	}
	if finalState.Status != "delivered" || finalState.X != 50 {
		t.Errorf("final = %+v", finalState)
	}
}

func TestInventoryOfflineSync(t *testing.T) {
	inv := apps.NewInventory()
	a := newAppsTopo(t, 10, inv)
	courier := &apps.InventoryClient{
		Fetcher: a.fetchers[0], Origin: a.mc.Host.Addr(),
		Local: mobiledb.New("courier-7", 0),
	}
	// Offline observations accumulate locally...
	scans := map[string]string{"scan:pkg-9": "picked up 09:02", "scan:pkg-10": "delivered 09:40"}
	for key, val := range scans {
		if err := courier.RecordOffline(key, []byte(val)); err != nil {
			t.Fatalf("RecordOffline: %v", err)
		}
	}
	// ...and reconcile once connectivity returns.
	confirmed := -1
	courier.Sync(func(n int, err error) {
		if err != nil {
			t.Errorf("sync: %v", err)
			return
		}
		confirmed = n
	})
	a.run(t)
	if confirmed != 2 || courier.Local.TentativeCount() != 0 {
		t.Fatalf("sync confirmed %d, %d still tentative; want 2, 0", confirmed, courier.Local.TentativeCount())
	}
	// The hub's backend on the host now holds both scans.
	for key, val := range scans {
		if row, ok, _ := inv.Scans.Lookup(key); !ok || row.Deleted || string(row.Value) != val {
			t.Errorf("hub row %s = %+v, %v; want %q", key, row, ok, val)
		}
	}
}

func TestTrafficAdvisoriesAndRouting(t *testing.T) {
	a := newAppsTopo(t, 11)
	c := &apps.TrafficClient{Fetcher: a.fetchers[0], Origin: a.mc.Host.Addr()}
	var nearby []apps.Advisory
	var route apps.RouteReply
	// Wall of severe congestion on x=2, y=-1..1 forces a detour.
	reports := []apps.Advisory{
		{CellX: 2, CellY: -1, Severity: 5, Message: "accident"},
		{CellX: 2, CellY: 0, Severity: 5, Message: "accident"},
		{CellX: 2, CellY: 1, Severity: 4, Message: "congestion"},
		{CellX: 0, CellY: 0, Severity: 1, Message: "slow"},
	}
	var fileNext func(i int)
	fileNext = func(i int) {
		if i == len(reports) {
			c.Advisories(0, 0, 2, func(advs []apps.Advisory, err error) {
				if err != nil {
					t.Errorf("advisories: %v", err)
					return
				}
				nearby = advs
			})
			c.Route(0, 0, 4, 0, func(r apps.RouteReply, err error) {
				if err != nil {
					t.Errorf("route: %v", err)
					return
				}
				route = r
			})
			return
		}
		c.Report(reports[i], func(_ apps.Advisory, err error) {
			if err != nil {
				t.Errorf("report %d: %v", i, err)
				return
			}
			fileNext(i + 1)
		})
	}
	fileNext(0)
	a.run(t)
	if len(nearby) < 3 {
		t.Errorf("nearby advisories = %v", nearby)
	}
	if route.Blocked || len(route.Waypoints) == 0 {
		t.Fatalf("route = %+v", route)
	}
	// The direct path is 5 cells; the detour must be longer and must not
	// cross the severe cells.
	if len(route.Waypoints) <= 5 {
		t.Errorf("route did not detour: %v", route.Waypoints)
	}
	for _, wp := range route.Waypoints {
		if wp[0] == 2 && wp[1] >= -1 && wp[1] <= 1 {
			t.Errorf("route crosses blocked cell %v", wp)
		}
	}
}

func TestTravelBookingLifecycle(t *testing.T) {
	a := newAppsTopo(t, 12)
	c := &apps.TravelClient{Fetcher: a.fetchers[0], Origin: a.mc.Host.Addr()}
	var ticket apps.Ticket
	var soldOutErr error
	c.Search("GSO", "ATL", func(its []apps.Itinerary, err error) {
		if err != nil || len(its) != 1 || its[0].ID != "fl-100" {
			t.Errorf("search: %v %v", its, err)
			return
		}
		// fl-100 has 2 seats: book both, then fail the third.
		c.Book("fl-100", "ann", func(tk apps.Ticket, err error) {
			if err != nil {
				t.Errorf("book 1: %v", err)
				return
			}
			ticket = tk
			c.Book("fl-100", "bob", func(_ apps.Ticket, err error) {
				if err != nil {
					t.Errorf("book 2: %v", err)
					return
				}
				c.Book("fl-100", "carol", func(_ apps.Ticket, err error) {
					soldOutErr = err
				})
			})
		})
	})
	a.run(t)
	if ticket.PriceCp != 12900 || ticket.Passenger != "ann" {
		t.Errorf("ticket = %+v", ticket)
	}
	if soldOutErr == nil || !strings.Contains(soldOutErr.Error(), "409") {
		t.Errorf("sold-out err = %v", soldOutErr)
	}
}

func TestAllServicesCoexistOnOneHost(t *testing.T) {
	// RegisterAll must not conflict on tables or routes; a second
	// registration must fail cleanly on duplicate tables.
	a := newAppsTopo(t, 13)
	err := apps.RegisterAll(a.mc.Host)
	if err == nil {
		t.Fatal("duplicate registration succeeded")
	}
	if !errors.Is(err, database.ErrExists) {
		t.Errorf("err = %v, want database.ErrExists", err)
	}
}
