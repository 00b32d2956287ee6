package core_test

import (
	"testing"
	"time"

	"mcommerce/internal/core"
	"mcommerce/internal/metrics"
)

// TestTransactWAPStateBounded pins WAP client state to the device: once
// every station has run its first transaction, 200 more fresh sessions
// reuse the stations' transaction endpoints and register nothing, and
// each station's one wap.wtp.<station> scope counts both invokes
// (connect and get) of every transaction it ran.
func TestTransactWAPStateBounded(t *testing.T) {
	mc, err := core.BuildMC(core.MCConfig{Seed: 1})
	if err != nil {
		t.Fatalf("BuildMC: %v", err)
	}
	registerShop(mc.Host)
	ran := make([]int, len(mc.Clients))
	failed := 0
	count := func(i int) func(core.Transaction) {
		return func(tx core.Transaction) {
			ran[i]++
			if tx.Err != nil {
				failed++
			}
		}
	}
	for i := range mc.Clients {
		mc.TransactWAP(i, "/shop", count(i))
	}
	if err := mc.Net.Sched.RunFor(30 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	before := mc.Metrics().Len()

	// Every station runs a closed loop of sessions until 200 have been
	// issued between them.
	const more = 200
	issued := 0
	var loop func(i int) func(core.Transaction)
	loop = func(i int) func(core.Transaction) {
		return func(tx core.Transaction) {
			count(i)(tx)
			if issued < more {
				issued++
				mc.TransactWAP(i, "/shop", loop(i))
			}
		}
	}
	for i := range mc.Clients {
		issued++
		mc.TransactWAP(i, "/shop", loop(i))
	}
	if err := mc.Net.Sched.RunFor(10 * time.Minute); err != nil {
		t.Fatalf("RunFor: %v", err)
	}

	total := 0
	for _, n := range ran {
		total += n
	}
	if want := len(mc.Clients) + more; total != want || failed != 0 {
		t.Fatalf("ran %d transactions (%d failed), want %d, none failed", total, failed, want)
	}
	if added := mc.Metrics().Len() - before; added != 0 {
		t.Errorf("%d more sessions added %d registry entries, want 0", more, added)
	}
	snap := mc.Metrics().Snapshot()
	for i, cl := range mc.Clients {
		name := "wap.wtp." + metrics.Sanitize(cl.Station.Node().Name) + ".invokes"
		if got, want := snap.Counter(name), int64(2*ran[i]); got != want {
			t.Errorf("%s = %d, want %d (2 x %d transactions)", name, got, want, ran[i])
		}
	}
}

// benchTxn measures one device->host->device transaction per op on
// client 0 of a default world, after one untimed warm-up transaction.
// It reports the registry's final size, so per-transaction state growth
// shows as a number that scales with b.N.
func benchTxn(b *testing.B, transact func(mc *core.MC, done func(core.Transaction))) {
	mc, err := core.BuildMC(core.MCConfig{Seed: 1})
	if err != nil {
		b.Fatalf("BuildMC: %v", err)
	}
	registerShop(mc.Host)
	run := func() {
		done := false
		transact(mc, func(tx core.Transaction) {
			if tx.Err != nil {
				b.Fatalf("transaction: %v", tx.Err)
			}
			done = true
		})
		for !done && mc.Net.Sched.Step() {
		}
		if !done {
			b.Fatal("transaction never completed")
		}
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		run()
	}
	b.StopTimer()
	b.ReportMetric(float64(mc.Metrics().Len()), "registry_entries")
}

// BenchmarkTxnWAP is one WAP transaction per op: a fresh WSP session
// over the station's transaction endpoint, then a browse.
func BenchmarkTxnWAP(b *testing.B) {
	benchTxn(b, func(mc *core.MC, done func(core.Transaction)) {
		mc.TransactWAP(0, "/shop", done)
	})
}

// BenchmarkTxnIMode is one i-mode transaction per op: a browse through
// the portal over the station's TCP stack.
func BenchmarkTxnIMode(b *testing.B) {
	benchTxn(b, func(mc *core.MC, done func(core.Transaction)) {
		mc.TransactIMode(0, "/shop", done)
	})
}
