package core_test

import (
	"strings"
	"testing"
	"time"

	"mcommerce/internal/core"
)

func TestBuildMCUnknownBearer(t *testing.T) {
	_, err := core.BuildMC(core.MCConfig{Seed: 1, Bearer: core.BearerKind(99)})
	if err == nil || !strings.Contains(err.Error(), "unknown bearer") {
		t.Fatalf("BuildMC with bogus bearer: err = %v, want unknown-bearer error", err)
	}
}

func TestBuildECDefaultClients(t *testing.T) {
	ec, err := core.BuildEC(core.ECConfig{Seed: 1})
	if err != nil {
		t.Fatalf("BuildEC: %v", err)
	}
	if len(ec.Clients) != 3 {
		t.Fatalf("default EC clients = %d, want 3", len(ec.Clients))
	}
}

// metricsDump builds an MC world, runs a small WAP+i-mode workload, and
// returns the full registry dump.
func metricsDump(t *testing.T, seed int64) string {
	t.Helper()
	mc, err := core.BuildMC(core.MCConfig{Seed: seed})
	if err != nil {
		t.Fatalf("BuildMC: %v", err)
	}
	registerShop(mc.Host)
	for i := 0; i < 2; i++ {
		mc.TransactWAP(i, "/shop", func(core.Transaction) {})
		mc.TransactIMode(i, "/shop", func(core.Transaction) {})
	}
	if err := mc.Net.Sched.RunFor(30 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	return mc.Metrics().Snapshot().String()
}

// TestMetricsDumpDeterministic is the registry's determinism contract:
// two same-seed worlds running the same workload must dump byte-identical
// telemetry.
func TestMetricsDumpDeterministic(t *testing.T) {
	a := metricsDump(t, 7)
	b := metricsDump(t, 7)
	if a != b {
		t.Fatalf("same-seed dumps differ:\n%s\n--- vs ---\n%s", a, b)
	}
}

// TestMetricsSpineCoverage asserts every layer registered into the world
// registry: a transaction touches the link, wireless, transport,
// middleware, server, and core scopes.
func TestMetricsSpineCoverage(t *testing.T) {
	dump := metricsDump(t, 3)
	for _, name := range []string{
		"simnet.sched.executed",
		"simnet.link.lan.delivered.ab",
		"simnet.link.wan.delivered.ab",
		"wireless.lan.802.11b-wi-fi.delivered",
		"mtcp.gateway.segments_sent",
		"wap.wtp.gateway.results",
		"wap.gw.gateway.requests",
		"imode.gw.gateway.requests",
		"web.server.host.requests",
		"web.server.host.latency",
		"host.db.commits",
		"core.txn.wap.latency",
		"core.txn.imode.latency",
	} {
		if !strings.Contains(dump, name+" ") {
			t.Errorf("metric %q missing from world dump", name)
		}
	}
}
