package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mcommerce/internal/device"
	"mcommerce/internal/webserver"
)

func buildShardedFixture(t *testing.T, shards int) *ShardedMC {
	t.Helper()
	smc, err := BuildShardedMC(ShardedMCConfig{
		Seed:   11,
		Shards: shards,
		Base:   MCConfig{Devices: device.Profiles()[:2]},
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, mc := range smc.MCs {
		k := k
		mc.Host.Server.Handle("/where", func(r *webserver.Request) *webserver.Response {
			body := fmt.Sprintf("<html><body>cluster %d</body></html>", k)
			return webserver.NewResponse(200, webserver.TypeCHTML, []byte(body))
		})
	}
	return smc
}

// runShardedMC drives local and remote transactions on every cluster and
// returns a deterministic digest of outcomes plus the merged metrics.
func runShardedMC(t *testing.T, shards, workers int) (string, *ShardedMC) {
	t.Helper()
	smc := buildShardedFixture(t, shards)
	type outcome struct {
		page string
		err  error
		lat  time.Duration
	}
	results := make([][]outcome, shards)
	for k := 0; k < shards; k++ {
		results[k] = make([]outcome, 2)
		k := k
		remote := (k + 1) % shards
		sched := smc.MCs[k].Net.Sched
		sched.After(10*time.Millisecond, func() {
			smc.MCs[k].TransactIMode(0, "/where", func(tx Transaction) {
				o := outcome{err: tx.Err, lat: tx.Latency}
				if tx.Page != nil {
					o.page = tx.Page.Text
				}
				results[k][0] = o
			})
		})
		sched.After(20*time.Millisecond, func() {
			smc.TransactIModeRemote(k, 1, remote, "/where", func(tx Transaction) {
				o := outcome{err: tx.Err, lat: tx.Latency}
				if tx.Page != nil {
					o.page = tx.Page.Text
				}
				results[k][1] = o
			})
		})
	}
	if err := smc.RunFor(30*time.Second, workers); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for k := 0; k < shards; k++ {
		for j, o := range results[k] {
			fmt.Fprintf(&b, "cluster%d[%d]: page=%q lat=%v err=%v\n", k, j, o.page, o.lat, o.err)
		}
	}
	b.WriteString(smc.Snapshot().String())
	return b.String(), smc
}

func TestShardedMCRemoteTransaction(t *testing.T) {
	digest, smc := runShardedMC(t, 3, 3)
	for k := 0; k < 3; k++ {
		remote := (k + 1) % 3
		if want := fmt.Sprintf("cluster%d[0]: page=\"cluster %d\"", k, k); !strings.Contains(digest, want) {
			t.Fatalf("local transaction of cluster %d failed:\n%s", k, digest)
		}
		if want := fmt.Sprintf("cluster%d[1]: page=\"cluster %d\"", k, remote); !strings.Contains(digest, want) {
			t.Fatalf("remote transaction %d->%d failed:\n%s", k, remote, digest)
		}
	}
	// Backbone trunks actually carried the remote flows.
	var delivered uint64
	for k := 0; k < 3; k++ {
		for m := k + 1; m < 3; m++ {
			l := smc.Backbone[k][m]
			delivered += l.Delivered[0] + l.Delivered[1]
		}
	}
	if delivered == 0 {
		t.Fatal("no backbone deliveries despite remote transactions")
	}
	if la := smc.World.Lookahead(); la != DefaultBackbone.Delay {
		t.Fatalf("lookahead %v, want backbone delay %v", la, DefaultBackbone.Delay)
	}
	if n := smc.World.NumShards(); n != 3 {
		t.Fatalf("shards = %d, want 3", n)
	}
}

// TestShardedMCWorkerInvariance pins the determinism guarantee at the
// full-stack level: mtcp, WAP/i-mode middleware, radio models and
// application handlers all riding the sharded engine, byte-identical at
// any worker count.
func TestShardedMCWorkerInvariance(t *testing.T) {
	d1, _ := runShardedMC(t, 3, 1)
	d4, _ := runShardedMC(t, 3, 4)
	if d1 != d4 {
		t.Fatalf("sharded MC diverged between workers=1 and workers=4:\n--- 1 ---\n%s\n--- 4 ---\n%s", d1, d4)
	}
	if !strings.Contains(d1, "s0.core.txn.imode.latency") {
		t.Fatalf("merged snapshot missing per-shard txn histogram:\n%s", d1)
	}
}
