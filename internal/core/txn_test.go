package core_test

import (
	"runtime"
	"testing"
	"time"

	"mcommerce/internal/core"
	"mcommerce/internal/metrics"
)

// closedLoop has every station of mc run transact back to back until n
// transactions have been issued between them, runs the world until they
// finish, and returns how many each station ran. It fails the test
// unless all n ran without error.
func closedLoop(t *testing.T, mc *core.MC, n int, transact func(i int, done func(core.Transaction))) []int {
	t.Helper()
	ran := make([]int, len(mc.Clients))
	issued, failed := 0, 0
	var loop func(i int) func(core.Transaction)
	loop = func(i int) func(core.Transaction) {
		return func(tx core.Transaction) {
			ran[i]++
			if tx.Err != nil {
				failed++
			}
			if issued < n {
				issued++
				transact(i, loop(i))
			}
		}
	}
	for i := range mc.Clients {
		if issued < n {
			issued++
			transact(i, loop(i))
		}
	}
	if err := mc.Net.Sched.RunFor(time.Duration(n) * time.Minute); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	total := 0
	for _, k := range ran {
		total += k
	}
	if total != n || failed != 0 {
		t.Fatalf("ran %d transactions (%d failed), want %d, none failed", total, failed, n)
	}
	return ran
}

// retainedHeap is the live heap after a full collection.
func retainedHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// Per-transaction state bound: once the world is warm, heap retained
// after boundedTxns more transactions may grow by at most
// maxRetainedPerTxn bytes per transaction.
const (
	boundedTxns       = 2000
	maxRetainedPerTxn = 48
)

// checkRetained warms the world up with boundedTxns transactions, so that
// free lists, timer slabs and the maps that hold state for a fixed time
// reach their steady size, then runs boundedTxns more and fails when they
// grow the retained heap by more than maxRetainedPerTxn each.
func checkRetained(t *testing.T, mc *core.MC, transact func(i int, done func(core.Transaction))) {
	t.Helper()
	closedLoop(t, mc, boundedTxns, transact)
	before := retainedHeap()
	closedLoop(t, mc, boundedTxns, transact)
	after := retainedHeap()
	runtime.KeepAlive(mc)
	per := (float64(after) - float64(before)) / boundedTxns
	t.Logf("retained heap %d -> %d bytes: %.1f B per transaction", before, after, per)
	if per > maxRetainedPerTxn {
		t.Errorf("%d transactions retained %.1f B each, want <= %d", boundedTxns, per, maxRetainedPerTxn)
	}
}

// TestTransactWAPStateBounded pins WAP client state to the device: once
// every station has run its first transaction, 200 more fresh sessions
// reuse the stations' transaction endpoints and register nothing, and
// each station's one wap.wtp.<station> scope counts both invokes
// (connect and get) of every transaction it ran. The gateway keeps only
// a byte per session, so the retained heap grows by little more than
// that per transaction.
func TestTransactWAPStateBounded(t *testing.T) {
	mc, err := core.BuildMC(core.MCConfig{Seed: 1})
	if err != nil {
		t.Fatalf("BuildMC: %v", err)
	}
	registerShop(mc.Host)
	transact := func(i int, done func(core.Transaction)) { mc.TransactWAP(i, "/shop", done) }
	first := closedLoop(t, mc, len(mc.Clients), transact)
	before := mc.Metrics().Len()

	const more = 200
	ran := closedLoop(t, mc, more, transact)
	if added := mc.Metrics().Len() - before; added != 0 {
		t.Errorf("%d more sessions added %d registry entries, want 0", more, added)
	}
	snap := mc.Metrics().Snapshot()
	for i, cl := range mc.Clients {
		name := "wap.wtp." + metrics.Sanitize(cl.Station.Node().Name) + ".invokes"
		n := first[i] + ran[i]
		if got, want := snap.Counter(name), int64(2*n); got != want {
			t.Errorf("%s = %d, want %d (2 x %d transactions)", name, got, want, n)
		}
	}
	checkRetained(t, mc, transact)
}

// TestTransactIModeStateBounded is the i-mode twin: after every station's
// first transaction, 200 more register nothing and the portal counts
// each of them once, and the retained heap stays flat.
func TestTransactIModeStateBounded(t *testing.T) {
	mc, err := core.BuildMC(core.MCConfig{Seed: 1})
	if err != nil {
		t.Fatalf("BuildMC: %v", err)
	}
	registerShop(mc.Host)
	transact := func(i int, done func(core.Transaction)) { mc.TransactIMode(i, "/shop", done) }
	closedLoop(t, mc, len(mc.Clients), transact)
	before := mc.Metrics().Len()

	const more = 200
	closedLoop(t, mc, more, transact)
	if added := mc.Metrics().Len() - before; added != 0 {
		t.Errorf("%d more transactions added %d registry entries, want 0", more, added)
	}
	if got, want := mc.IMode.Stats().Requests, uint64(len(mc.Clients)+more); got != want {
		t.Errorf("portal requests = %d, want %d", got, want)
	}
	checkRetained(t, mc, transact)
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
