package core

import (
	"fmt"
	"time"

	"mcommerce/internal/metrics"
	"mcommerce/internal/simnet"
	"mcommerce/internal/trace"
)

// DefaultBackbone is the wired backbone joining the gateway clusters of a
// sharded deployment: an inter-city WAN trunk. Its delay is the
// conservative lookahead the executor gets to run clusters in parallel.
var DefaultBackbone = simnet.LinkConfig{Rate: 100 * simnet.Mbps, Delay: 10 * time.Millisecond}

// ShardedMCConfig parameterizes BuildShardedMC.
type ShardedMCConfig struct {
	Seed int64
	// Shards is the number of gateway clusters (>= 1); each becomes one
	// execution shard holding a full MC deployment.
	Shards int
	// Base is the per-cluster deployment template (its Seed is ignored;
	// shard schedulers derive theirs from Seed).
	Base MCConfig
	// Backbone overrides the inter-cluster trunk; zero means
	// DefaultBackbone. Its Delay bounds the lookahead and must be > 0.
	Backbone simnet.LinkConfig
}

// ShardedMC is a multi-cluster mobile commerce deployment: Shards full MC
// systems — each with its own stations, bearer, middleware gateway and
// host — joined by a wired backbone mesh between their routers, executing
// under the conservative sharded engine. Cluster k lives wholly in shard
// k, so the only cross-shard traffic is backbone traffic, and the
// backbone delay is the lookahead.
type ShardedMC struct {
	World *simnet.Sharded
	// MCs holds cluster k's deployment at index k.
	MCs []*MC
	// Backbone[k][m] (k < m) is the trunk between routers k and m.
	Backbone [][]*simnet.CrossLink
}

// BuildShardedMC builds the clusters and the backbone mesh. Every router
// learns explicit routes to every remote cluster's host and gateway, so
// a station in cluster k can transact against cluster m's host (see
// TransactIModeRemote).
func BuildShardedMC(cfg ShardedMCConfig) (*ShardedMC, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("core: sharded MC needs >= 1 shard, got %d", cfg.Shards)
	}
	bb := cfg.Backbone
	if bb == (simnet.LinkConfig{}) {
		bb = DefaultBackbone
	}

	w := simnet.NewSharded(cfg.Seed, cfg.Shards)
	smc := &ShardedMC{World: w}
	for k := 0; k < cfg.Shards; k++ {
		mc, err := buildMCOn(w.Shard(k), cfg.Base)
		if err != nil {
			return nil, fmt.Errorf("core: cluster %d: %w", k, err)
		}
		smc.MCs = append(smc.MCs, mc)
	}

	// Backbone mesh plus explicit routes for remote hosts and gateways.
	smc.Backbone = make([][]*simnet.CrossLink, cfg.Shards)
	for k := range smc.Backbone {
		smc.Backbone[k] = make([]*simnet.CrossLink, cfg.Shards)
	}
	for k := 0; k < cfg.Shards; k++ {
		for m := k + 1; m < cfg.Shards; m++ {
			cfgBB := bb
			cfgBB.Name = fmt.Sprintf("bb-%d-%d", k, m)
			l, err := w.Cross(smc.MCs[k].RouterNode, smc.MCs[m].RouterNode, cfgBB)
			if err != nil {
				return nil, fmt.Errorf("core: backbone %d-%d: %w", k, m, err)
			}
			smc.Backbone[k][m] = l
			smc.Backbone[m][k] = l
		}
	}
	for k := 0; k < cfg.Shards; k++ {
		for m := 0; m < cfg.Shards; m++ {
			if m == k {
				continue
			}
			local, remote := smc.MCs[k], smc.MCs[m]
			out := smc.bbIface(k, m)
			// Cross-cluster flows terminate at the remote host (forward
			// path) and return to the local gateway (the middleware's TCP
			// endpoint), so both need routes at both routers.
			local.RouterNode.SetRoute(remote.Host.Node.ID, out)
			local.RouterNode.SetRoute(remote.GatewayNode.ID, out)
			// The local gateway reaches remote hosts through its WAN
			// uplink (the router takes it from there).
			local.GatewayNode.SetRoute(remote.Host.Node.ID, local.WANLink.IfaceB())
		}
	}
	return smc, nil
}

// bbIface returns router k's backbone interface toward cluster m.
func (smc *ShardedMC) bbIface(k, m int) *simnet.Iface {
	l := smc.Backbone[k][m]
	if k < m {
		return l.IfaceA()
	}
	return l.IfaceB()
}

// RunFor executes the whole deployment for d of virtual time on up to
// workers goroutines.
func (smc *ShardedMC) RunFor(d time.Duration, workers int) error {
	return smc.World.RunFor(d, workers)
}

// Snapshot captures every cluster's registry, prefixed s<k>.
func (smc *ShardedMC) Snapshot() metrics.Snapshot { return smc.World.Snapshot() }

// Spans returns all clusters' recorded spans in shard order.
func (smc *ShardedMC) Spans() []trace.Span { return smc.World.Spans() }

// TransactIModeRemote runs an i-mode browse from cluster k's client i
// against cluster m's host, crossing the backbone twice (request via
// cluster k's portal to host m, response back). Call it from cluster k's
// shard: during the build phase or from an event on cluster k's
// scheduler.
func (smc *ShardedMC) TransactIModeRemote(k, i, m int, path string, done func(Transaction)) {
	smc.MCs[k].TransactIModeTo(i, smc.MCs[m].Host.Addr(), path, done)
}
