// Inventory tracking and dispatching — the paper's motivating example of a
// task "not feasible for electronic commerce". A delivery fleet works a
// GPRS cell: couriers stream position updates, a dispatcher assigns the
// nearest courier to each new package, and one courier drives out of
// coverage, keeps scanning packages into the on-device embedded database,
// and uploads them to the hub when coverage returns.
//
//	go run ./examples/inventory
package main

import (
	"fmt"
	"os"
	"time"

	"mcommerce/internal/apps"
	"mcommerce/internal/cellular"
	"mcommerce/internal/core"
	"mcommerce/internal/device"
	"mcommerce/internal/mobiledb"
	"mcommerce/internal/wireless"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "inventory:", err)
		os.Exit(1)
	}
}

func run() error {
	mc, err := core.BuildMC(core.MCConfig{
		Seed:         7,
		Bearer:       core.BearerCellular,
		CellStandard: cellular.GPRS,
		Devices: []device.Profile{
			device.PalmI705,    // courier "van-1"
			device.ToshibaE740, // courier "van-2"
			device.Nokia9290,   // dispatcher
		},
	})
	if err != nil {
		return err
	}
	if err := apps.RegisterAll(mc.Host); err != nil {
		return err
	}

	origin := mc.Host.Addr()
	van1 := &apps.InventoryClient{
		Fetcher: &device.IModeFetcher{Client: mc.Clients[0].IMode},
		Origin:  origin,
		Local:   mobiledb.New("van-1", 64<<10),
	}
	van2 := &apps.InventoryClient{
		Fetcher: &device.IModeFetcher{Client: mc.Clients[1].IMode},
		Origin:  origin,
	}
	dispatcher := &apps.InventoryClient{
		Fetcher: &device.IModeFetcher{Client: mc.Clients[2].IMode},
		Origin:  origin,
	}
	sched := mc.Net.Sched

	// Couriers come on shift and report in.
	van1.ReportPosition(apps.TrackUpdate{Courier: "van-1", X: 100, Y: 100}, must("van-1 check-in"))
	van2.ReportPosition(apps.TrackUpdate{Courier: "van-2", X: 4000, Y: 4000}, must("van-2 check-in"))

	// A package shows up near van-1; dispatch picks the nearest courier.
	sched.After(2*time.Second, func() {
		dispatcher.NewPackage("pkg-77", 300, 250, func(_ apps.PackageView, err error) {
			fatal("register package", err)
			dispatcher.Dispatch("pkg-77", func(r apps.DispatchReply, err error) {
				fatal("dispatch", err)
				fmt.Printf("t=%-6s dispatch: %s -> %s (%.0f m away)\n",
					sched.Now().Round(time.Millisecond), r.Package, r.Courier, r.Distance)
			})
		})
	})

	// van-1 picks it up and delivers it, streaming positions.
	waypoints := [][2]float64{{200, 180}, {300, 250}, {900, 700}, {1500, 1200}}
	for i, wp := range waypoints {
		i, wp := i, wp
		sched.After(time.Duration(4+i*3)*time.Second, func() {
			u := apps.TrackUpdate{Courier: "van-1", X: wp[0], Y: wp[1], Package: "pkg-77"}
			if i == len(waypoints)-1 {
				u.Delivered = true
			}
			van1.ReportPosition(u, func(err error) {
				fatal("position", err)
				fmt.Printf("t=%-6s van-1 at (%.0f,%.0f)%s\n",
					sched.Now().Round(time.Millisecond), wp[0], wp[1],
					map[bool]string{true: " — delivered pkg-77", false: ""}[u.Delivered])
			})
		})
	}

	// van-1 then drives out of coverage (20 km from the cell): scans keep
	// landing in the embedded database.
	sched.After(17*time.Second, func() {
		mc.Clients[0].CellMobile.MoveTo(wireless.Position{X: 20000})
		fmt.Printf("t=%-6s van-1 left coverage; scanning offline\n", sched.Now().Round(time.Millisecond))
		for i := 0; i < 4; i++ {
			key := fmt.Sprintf("scan:pkg-%d", 80+i)
			if err := van1.RecordOffline(key, []byte("picked up at depot B")); err != nil {
				fatal("offline scan", err)
			}
		}
		fmt.Printf("t=%-6s van-1 embedded DB holds %d records (%d B of its 64 KiB footprint)\n",
			sched.Now().Round(time.Millisecond), van1.Local.Len(), van1.Local.UsedBytes())
	})

	// Coverage returns; the embedded database uploads its scans to the hub.
	sched.After(25*time.Second, func() {
		mc.Clients[0].CellMobile.MoveTo(wireless.Position{X: 800})
	})
	sched.After(27*time.Second, func() {
		van1.Sync(func(confirmed int, err error) {
			fatal("sync", err)
			fmt.Printf("t=%-6s van-1 back in coverage; hub confirmed %d offline scans\n",
				sched.Now().Round(time.Millisecond), confirmed)
		})
	})

	// The dispatcher audits the outcome.
	sched.After(30*time.Second, func() {
		dispatcher.Where("pkg-77", func(v apps.PackageView, err error) {
			fatal("where", err)
			fmt.Printf("t=%-6s audit: pkg-77 status=%s courier=%s at (%.0f,%.0f)\n",
				sched.Now().Round(time.Millisecond), v.Status, v.Courier, v.X, v.Y)
		})
	})

	if err := sched.RunFor(2 * time.Minute); err != nil {
		return err
	}
	fmt.Printf("cell stats: delivered=%d handoffs=%d\n", mc.Cell.Delivered, mc.Cell.Handoffs)
	return nil
}

func must(what string) func(error) {
	return func(err error) { fatal(what, err) }
}

func fatal(what string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "inventory: %s: %v\n", what, err)
		os.Exit(1)
	}
}
