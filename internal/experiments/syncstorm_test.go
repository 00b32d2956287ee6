package experiments

import (
	"testing"
	"time"

	"mcommerce/internal/mobiledb"
)

func stormCfg(seed int64) SyncStormConfig {
	return SyncStormConfig{
		Seed: seed, Gateways: 2, CellsPerGateway: 1, DevicesPerCell: 40,
		WriteMean: time.Second, SyncMean: 2 * time.Second,
		Duration: 25 * time.Second,
	}
}

// TestSyncStormResilientZeroLoss is the acceptance core: the full chaos
// plan (uplink flap, replica crash, primary failover, crash-during-sync)
// must not cost a resilient tier a single update, and the tiers must
// converge byte-identically afterwards.
func TestSyncStormResilientZeroLoss(t *testing.T) {
	for _, policy := range []mobiledb.Policy{mobiledb.PolicyLWW, mobiledb.PolicyServerWins} {
		cfg := stormCfg(7)
		cfg.Policy = policy
		sw, err := BuildSyncStorm(cfg)
		if err != nil {
			t.Fatalf("%v: build: %v", policy, err)
		}
		rep, err := sw.Run()
		if err != nil {
			t.Fatalf("%v: run: %v", policy, err)
		}
		if rep.Lost() != 0 {
			t.Errorf("%v: lost %d updates (device=%d blind=%d)", policy, rep.Lost(), rep.LostDevice, rep.BlindOverwrites)
		}
		if !rep.Converged {
			t.Errorf("%v: tiers never converged", policy)
		}
		if rep.Confirmed == 0 {
			t.Errorf("%v: nothing confirmed (syncs=%d timeouts=%d)", policy, rep.Syncs, rep.Timeouts)
		}
		if rep.Faults == 0 {
			t.Errorf("%v: chaos plan never fired", policy)
		}
		if rep.Timeouts == 0 && rep.Redirects == 0 {
			t.Errorf("%v: chaos left no trace on the device tier", policy)
		}
	}
}

// TestSyncStormFragileLosesWrites pins the baseline: rollback-on-timeout
// devices plus a blind-overwrite server measurably lose updates under the
// same storm.
func TestSyncStormFragileLosesWrites(t *testing.T) {
	cfg := stormCfg(7)
	cfg.Policy = mobiledb.PolicyFragile
	sw, err := BuildSyncStorm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost() == 0 {
		t.Errorf("fragile tier lost nothing (timeouts=%d confirmed=%d)", rep.Timeouts, rep.Confirmed)
	}
}

// TestSyncStormDeterministicAcrossWorkers: the same seed must produce a
// byte-identical world state and registry whether the shards run on one
// worker lane or four.
func TestSyncStormDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) string {
		cfg := stormCfg(13)
		cfg.Workers = workers
		sw, err := BuildSyncStorm(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sw.Run()
		if err != nil {
			t.Fatal(err)
		}
		return sw.World.Snapshot().String() + sw.Digest(rep)
	}
	serial := run(1)
	sharded := run(4)
	if serial != sharded {
		t.Errorf("digest diverged between 1 and 4 workers:\n--- serial ---\n%s\n--- sharded ---\n%s", serial, sharded)
	}
}

// TestSyncStormRegistry runs the registry entry end to end and checks the
// machine-readable scoreboard.
func TestSyncStormRegistry(t *testing.T) {
	r := SyncStorm(5)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d, want 3:\n%s", len(r.Rows), r)
	}
	for _, name := range []string{"lww", "server-wins"} {
		if got := r.Get(name + "/lost"); got != 0 {
			t.Errorf("%s/lost = %v, want 0", name, got)
		}
		if got := r.Get(name + "/converged"); got != 1 {
			t.Errorf("%s/converged = %v, want 1", name, got)
		}
	}
	if got := r.Get("fragile/lost"); got == 0 {
		t.Error("fragile/lost = 0, want measurable loss")
	}
}
