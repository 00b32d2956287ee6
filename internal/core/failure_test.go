package core_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"mcommerce/internal/apps"
	"mcommerce/internal/core"
	"mcommerce/internal/database"
	"mcommerce/internal/device"
	"mcommerce/internal/simnet"
	"mcommerce/internal/wap"
)

// TestTransactionFailsCleanlyWhenHostDown injects a host-computer outage:
// the station's transaction must surface an error rather than hang, and
// service must recover when the host returns.
func TestTransactionFailsCleanlyWhenHostDown(t *testing.T) {
	mc, err := core.BuildMC(core.MCConfig{Seed: 21, Devices: []device.Profile{device.ToshibaE740}})
	if err != nil {
		t.Fatalf("BuildMC: %v", err)
	}
	registerShop(mc.Host)

	// Down every host interface.
	var hostIfaces []*simnet.Iface
	for _, ifc := range mc.Host.Node.Ifaces() {
		hostIfaces = append(hostIfaces, ifc)
		ifc.Up = false
	}

	var firstErr error
	fired := false
	mc.TransactIMode(0, "/shop", func(tr core.Transaction) {
		firstErr, fired = tr.Err, true
	})
	if err := mc.Net.Sched.RunFor(10 * time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired {
		t.Fatal("transaction hung with host down")
	}
	if firstErr == nil {
		t.Fatal("transaction succeeded with host down")
	}

	// Host returns; a retry succeeds.
	for _, ifc := range hostIfaces {
		ifc.Up = true
	}
	var retryErr error
	done := false
	mc.TransactIMode(0, "/shop", func(tr core.Transaction) { retryErr, done = tr.Err, true })
	if err := mc.Net.Sched.RunFor(2 * time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !done || retryErr != nil {
		t.Errorf("retry after recovery: done=%v err=%v", done, retryErr)
	}
}

// TestWAPConnectAbortsWhenGatewayUnreachable injects a middleware outage:
// the WSP connect must abort after WTP retries, not hang.
func TestWAPConnectAbortsWhenGatewayUnreachable(t *testing.T) {
	mc, err := core.BuildMC(core.MCConfig{Seed: 22, Devices: []device.Profile{device.PalmI705}})
	if err != nil {
		t.Fatalf("BuildMC: %v", err)
	}
	for _, ifc := range mc.GatewayNode.Ifaces() {
		ifc.Up = false
	}
	var gotErr error
	fired := false
	mc.Clients[0].ConnectWAP(func(br *device.Browser, err error) { gotErr, fired = err, true })
	if err := mc.Net.Sched.RunFor(10 * time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired {
		t.Fatal("WSP connect hung with gateway down")
	}
	if !errors.Is(gotErr, wap.ErrAborted) {
		t.Errorf("err = %v, want wap.ErrAborted", gotErr)
	}
}

// TestDatabaseCrashRecoveryPreservesMoney runs live payments, snapshots
// the WAL mid-stream ("crash"), rebuilds the database, and checks the
// accounting invariant: total money is conserved and no order is
// half-applied.
func TestDatabaseCrashRecoveryPreservesMoney(t *testing.T) {
	mc, err := core.BuildMC(core.MCConfig{Seed: 23, Devices: []device.Profile{device.ToshibaE740}})
	if err != nil {
		t.Fatalf("BuildMC: %v", err)
	}
	if err := apps.NewCommerce().Register(mc.Host); err != nil {
		t.Fatalf("Register: %v", err)
	}
	c := &apps.CommerceClient{
		Fetcher: &device.IModeFetcher{Client: mc.Clients[0].IMode},
		Origin:  mc.Host.Addr(),
		Key:     []byte("payment-demo-key"),
	}
	const opening = int64(100_000)
	c.OpenAccount("a", "A", opening, func(_ apps.AccountView, err error) {
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		c.OpenAccount("b", "B", opening, func(_ apps.AccountView, err error) {
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			var next func(i int)
			next = func(i int) {
				if i == 50 {
					return
				}
				c.Pay(fmt.Sprintf("o%02d", i), "a", "b", 100, int64(i), func(_ apps.PayReceipt, err error) {
					if err != nil {
						t.Errorf("pay %d: %v", i, err)
						return
					}
					next(i + 1)
				})
			}
			next(0)
		})
	})
	// "Crash" mid-stream: snapshot the WAL after ~2 s of virtual time.
	var snapshot []database.LogRecord
	mc.Net.Sched.At(2*time.Second, func() { snapshot = mc.Host.DB.WALRange(0, mc.Host.DB.WALLen()) })
	if err := mc.Net.Sched.RunFor(5 * time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(snapshot) == 0 {
		t.Fatal("no WAL snapshot captured")
	}

	recovered := database.New()
	if err := recovered.ResetTo(snapshot); err != nil {
		t.Fatalf("ResetTo: %v", err)
	}
	var total, aBal int64
	orders := 0
	if err := recovered.Atomically(func(tx *database.Tx) error {
		if err := tx.Scan("accounts", func(r database.Row) bool {
			bal, _ := r["balance"].(int64)
			total += bal
			if r["id"] == "a" {
				aBal = bal
			}
			return true
		}); err != nil {
			return err
		}
		return tx.Scan("orders", func(r database.Row) bool {
			orders++
			return true
		})
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if total != 2*opening {
		t.Errorf("money not conserved across crash: total %d, want %d", total, 2*opening)
	}
	// Every captured order must match the payer's balance delta exactly.
	if wantBal := opening - int64(orders)*100; aBal != wantBal {
		t.Errorf("payer balance %d inconsistent with %d captured orders (want %d)", aBal, orders, wantBal)
	}
	if orders == 0 || orders == 50 {
		t.Logf("note: crash captured %d/50 orders (boundary case)", orders)
	}
}

// TestStationBatteryDeathStopsBrowsing drains a station's battery and
// verifies the failure mode.
func TestStationBatteryDeathStopsBrowsing(t *testing.T) {
	mc, err := core.BuildMC(core.MCConfig{Seed: 24, Devices: []device.Profile{device.PalmI705}})
	if err != nil {
		t.Fatalf("BuildMC: %v", err)
	}
	registerShop(mc.Host)
	st := mc.Clients[0].Station
	// Exhaust the battery out-of-band (e.g. hours of standby drain).
	st.DrainCPU(1000 * time.Hour)
	if st.Battery() > 0 {
		t.Fatal("battery should be empty")
	}
	var gotErr error
	fired := false
	mc.TransactIMode(0, "/shop", func(tr core.Transaction) { gotErr, fired = tr.Err, true })
	if err := mc.Net.Sched.RunFor(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired || !errors.Is(gotErr, device.ErrPoweredOff) {
		t.Errorf("err = %v (fired=%v), want ErrPoweredOff", gotErr, fired)
	}
}
