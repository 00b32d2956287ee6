package experiments

import (
	"fmt"
	"hash/fnv"
	"time"

	"mcommerce/internal/core"
	"mcommerce/internal/faults"
	"mcommerce/internal/mobiledb"
	"mcommerce/internal/obs"
	"mcommerce/internal/simnet"
	"mcommerce/internal/workload"
)

// The syncstorm experiment is the data tier's chaos gauntlet at scale: G
// gateway clusters, each carrying a replicated data tier (primary on the
// host plus replicas behind it) and C cells of virtual disconnected
// devices (workload.SyncFlows), sharded one cluster per partition with a
// backbone ring as the cut set. Every cluster runs the same fault plan —
// an uplink flap, a replica crash, a primary failover and an armed
// crash-during-sync — while devices keep writing tentatively and syncing.
// The scoreboard: resilient policies (LWW, server-wins) must finish with
// zero lost updates and a byte-identical converged tier per seed at any
// worker count; the fragile rollback-on-timeout baseline loses writes.

var (
	stormUplink   = simnet.LinkConfig{Rate: 2 * simnet.Mbps, Delay: 20 * time.Millisecond, QueueLen: 64}
	stormBackbone = simnet.LinkConfig{Rate: 1 * simnet.Gbps, Delay: 10 * time.Millisecond, QueueLen: 1024}
)

// SyncStormConfig sizes a syncstorm world. Zero fields take defaults.
type SyncStormConfig struct {
	Seed            int64
	Gateways        int // clusters, one data tier each (default 2)
	CellsPerGateway int // device aggregator nodes per cluster (default 2)
	DevicesPerCell  int // virtual devices per cell (default 100)
	Replicas        int // replica nodes beside each primary (default 2)
	// RemotePerMille of each cell's devices sync to the next cluster's
	// tier over the backbone, keeping the cut links under load
	// (default 100; forced 0 with one gateway).
	RemotePerMille int

	// Policy is the server conflict rule (default LWW). PolicyFragile
	// also makes devices roll back on a timed-out sync: the fragile
	// baseline.
	Policy mobiledb.Policy

	WriteMean time.Duration // default 2s
	SyncMean  time.Duration // default 4s

	Duration time.Duration // chaos + load horizon (default 40s)
	// ConvergeGrace bounds the post-horizon wait for tier convergence
	// (default 30s).
	ConvergeGrace time.Duration

	Workers int  // worker lanes (default 1; any value, same bytes)
	NoChaos bool // skip the fault plan (calibration runs)
}

func (c *SyncStormConfig) defaults() {
	if c.Gateways <= 0 {
		c.Gateways = 2
	}
	if c.CellsPerGateway <= 0 {
		c.CellsPerGateway = 2
	}
	if c.DevicesPerCell <= 0 {
		c.DevicesPerCell = 100
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.RemotePerMille <= 0 || c.RemotePerMille > 1000 {
		c.RemotePerMille = 100
	}
	if c.Gateways == 1 {
		c.RemotePerMille = 0
	}
	if c.WriteMean <= 0 {
		c.WriteMean = 2 * time.Second
	}
	if c.SyncMean <= 0 {
		c.SyncMean = 4 * time.Second
	}
	if c.Duration <= 0 {
		c.Duration = 40 * time.Second
	}
	if c.ConvergeGrace <= 0 {
		c.ConvergeGrace = 30 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
}

// SyncStormWorld is a built syncstorm topology, ready to run.
type SyncStormWorld struct {
	Cfg       SyncStormConfig
	World     *simnet.Sharded
	Hosts     []*simnet.Node
	Tiers     []*core.DataTier
	Cells     [][]*simnet.Node
	Local     [][]*workload.SyncFlows
	Remote    [][]*workload.SyncFlows // nil population slots when RemotePerMille is 0
	Injectors []*faults.Injector
}

// stormChaosPlan is the per-cluster fault schedule: every phase of the
// tier's failure surface inside one horizon.
func stormChaosPlan() *faults.Plan {
	return faults.NewPlan("syncstorm").
		Add(faults.Event{At: 2 * time.Second, Duration: 3 * time.Second, Kind: faults.LinkDown, Target: "up0"}).
		Add(faults.Event{At: 6 * time.Second, Duration: 2 * time.Second, Kind: faults.NodeCrash, Target: "db1"}).
		Add(faults.Event{At: 10 * time.Second, Duration: 3 * time.Second, Kind: faults.NodeCrash, Target: "db0"}).
		Add(faults.Event{At: 15 * time.Second, Duration: 2 * time.Second, Kind: faults.SyncCrash, Target: "sync1"})
}

// BuildSyncStorm builds the world: one shard per cluster, a data tier and
// device cells in each, a backbone ring crossing the shard boundaries,
// and (unless NoChaos) the per-cluster fault plan scheduled on each
// cluster's injector.
func BuildSyncStorm(cfg SyncStormConfig) (*SyncStormWorld, error) {
	cfg.defaults()
	G, C, D := cfg.Gateways, cfg.CellsPerGateway, cfg.DevicesPerCell
	if D > 60000 {
		return nil, fmt.Errorf("experiments: %d devices per cell overflow the cell's port space", D)
	}

	w := simnet.NewSharded(cfg.Seed, G)
	sw := &SyncStormWorld{Cfg: cfg, World: w}
	sw.Hosts = make([]*simnet.Node, G)
	sw.Tiers = make([]*core.DataTier, G)
	sw.Cells = make([][]*simnet.Node, G)
	sw.Local = make([][]*workload.SyncFlows, G)
	sw.Remote = make([][]*workload.SyncFlows, G)
	sw.Injectors = make([]*faults.Injector, G)

	// Clusters: host (doubles as the tier's wired router), replicated
	// tier, device cells.
	uplinks := make([][]*simnet.Link, G)
	for c := 0; c < G; c++ {
		net := w.Shard(c)
		host := net.NewNode(fmt.Sprintf("storm-host%d", c))
		host.Forwarding = true
		sw.Hosts[c] = host
		dt, err := core.BuildDataTier(net, host, host, core.DataTierConfig{
			Replicas: cfg.Replicas, Policy: cfg.Policy,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: storm tier %d: %w", c, err)
		}
		sw.Tiers[c] = dt
		sw.Cells[c] = make([]*simnet.Node, C)
		uplinks[c] = make([]*simnet.Link, C)
		for j := 0; j < C; j++ {
			cell := net.NewNode(fmt.Sprintf("storm-cell%d.%d", c, j))
			up := stormUplink
			up.Name = fmt.Sprintf("storm-up%d.%d", c, j)
			l := simnet.Connect(cell, host, up)
			cell.SetDefaultRoute(l.IfaceA())
			host.SetRoute(cell.ID, l.IfaceB())
			sw.Cells[c][j] = cell
			uplinks[c][j] = l
		}
	}

	// Backbone ring, crossing shard boundaries. Cluster c's devices only
	// ever reach the next cluster's tier, so host c routes toward next's
	// members, and next's host routes replies (and invalidation pushes)
	// back to c's cells.
	toNext, fromNext, err := buildRing(w, sw.Hosts, stormBackbone, "storm-bb")
	if err != nil {
		return nil, err
	}
	for c := range toNext {
		next := (c + 1) % G
		for _, nd := range sw.Tiers[next].Nodes {
			sw.Hosts[c].SetRoute(nd.ID, toNext[c])
		}
		for j := 0; j < C; j++ {
			sw.Hosts[next].SetRoute(sw.Cells[c][j].ID, fromNext[c])
		}
	}

	// Device populations: a local population syncing to the cluster's own
	// tier, plus a small remote population crossing the backbone.
	nRemote := D * cfg.RemotePerMille / 1000
	nLocal := D - nRemote
	for c := 0; c < G; c++ {
		next := (c + 1) % G
		sw.Local[c] = make([]*workload.SyncFlows, C)
		sw.Remote[c] = make([]*workload.SyncFlows, C)
		for j := 0; j < C; j++ {
			fcfg := workload.SyncFlowConfig{
				Devices: nLocal, FirstPort: 1000, Tier: sw.Tiers[c].Addrs(),
				WriteMean: cfg.WriteMean, SyncMean: cfg.SyncMean,
				Fragile: cfg.Policy == mobiledb.PolicyFragile,
			}
			f, err := workload.NewSyncFlows(sw.Cells[c][j], fmt.Sprintf("s%d.%d", c, j), fcfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: storm flows %d.%d: %w", c, j, err)
			}
			sw.Local[c][j] = f
			for _, svc := range sw.Tiers[c].Services {
				svc.Subscribe(f.InvalidationAddr())
			}
			if nRemote > 0 {
				rcfg := fcfg
				rcfg.Devices = nRemote
				rcfg.FirstPort = 1000 + simnet.Port(nLocal) + 1
				rcfg.Tier = sw.Tiers[next].Addrs()
				rf, err := workload.NewSyncFlows(sw.Cells[c][j], fmt.Sprintf("s%d.%dr", c, j), rcfg)
				if err != nil {
					return nil, fmt.Errorf("experiments: storm remote flows %d.%d: %w", c, j, err)
				}
				sw.Remote[c][j] = rf
				for _, svc := range sw.Tiers[next].Services {
					svc.Subscribe(rf.InvalidationAddr())
				}
			}
		}
	}

	// Chaos: one injector per cluster, all running the same plan against
	// their own tier.
	for c := 0; c < G; c++ {
		in := faults.NewInjector(w.Shard(c))
		sw.Injectors[c] = in
		dt := sw.Tiers[c]
		for j := 0; j < C; j++ {
			in.RegisterLink(fmt.Sprintf("up%d", j), uplinks[c][j])
		}
		for i := range dt.Members {
			m, svc := dt.Members[i], dt.Services[i]
			crash := func() { svc.Crash(); m.Crash() }
			nd := m.Node()
			in.RegisterNode(fmt.Sprintf("db%d", i), nd, crash, m.Restart)
			in.RegisterSyncTrigger(fmt.Sprintf("sync%d", i), nd, crash, m.Restart, svc.OnSessionStart)
		}
		if !cfg.NoChaos {
			if err := in.Schedule(stormChaosPlan()); err != nil {
				return nil, fmt.Errorf("experiments: storm chaos %d: %w", c, err)
			}
		}
	}
	return sw, nil
}

// Devices returns the total virtual-device population.
func (sw *SyncStormWorld) Devices() int {
	return sw.Cfg.Gateways * sw.Cfg.CellsPerGateway * sw.Cfg.DevicesPerCell
}

// SyncStormReport is a deterministic run summary.
type SyncStormReport struct {
	Devices int
	Shards  int

	Writes, Syncs, Confirmed, Overridden uint64
	Timeouts, Redirects                  uint64
	Conflicts, Duplicates                uint64
	// LostDevice counts tentative writes rolled back by fragile devices;
	// BlindOverwrites counts server-side silent clobbers under the
	// fragile policy. Lost() is their sum — the experiment's headline.
	LostDevice, BlindOverwrites uint64
	Faults                      uint64

	Converged bool
	// ConvergeAfter is how long past the horizon the tiers took to reach
	// byte-identical state (0 = already converged at the horizon; -1 =
	// never within the grace window).
	ConvergeAfter time.Duration
}

// Lost is the lost-update total — zero under resilient policies.
func (r *SyncStormReport) Lost() uint64 { return r.LostDevice + r.BlindOverwrites }

// Run executes the horizon, then steps until every tier converged (or the
// grace window expires), and reports.
func (sw *SyncStormWorld) Run() (*SyncStormReport, error) {
	cfg := sw.Cfg
	if err := sw.World.RunFor(cfg.Duration, cfg.Workers); err != nil {
		return nil, err
	}
	rep := &SyncStormReport{Devices: sw.Devices(), Shards: cfg.Gateways, ConvergeAfter: -1}
	const step = 250 * time.Millisecond
	for waited := time.Duration(0); waited <= cfg.ConvergeGrace; waited += step {
		if sw.converged() {
			rep.Converged = true
			rep.ConvergeAfter = waited
			break
		}
		if err := sw.World.RunFor(step, cfg.Workers); err != nil {
			return nil, err
		}
	}
	sw.fill(rep)
	return rep, nil
}

func (sw *SyncStormWorld) converged() bool {
	for _, dt := range sw.Tiers {
		for _, m := range dt.Members {
			if !m.Alive() {
				return false
			}
		}
		if !dt.Converged() {
			return false
		}
	}
	return true
}

func (sw *SyncStormWorld) fill(rep *SyncStormReport) {
	pops := func(ff []*workload.SyncFlows) {
		for _, f := range ff {
			if f == nil {
				continue
			}
			rep.Writes += f.Writes
			rep.Syncs += f.Syncs
			rep.Confirmed += f.Confirmed
			rep.Overridden += f.Overridden
			rep.Timeouts += f.Timeouts
			rep.Redirects += f.Redirects
			rep.LostDevice += f.Lost
		}
	}
	for c := range sw.Tiers {
		pops(sw.Local[c])
		pops(sw.Remote[c])
		for _, svc := range sw.Tiers[c].Services {
			srv := svc.Server()
			rep.Conflicts += srv.ConflictsSeen
			rep.Duplicates += srv.Duplicates
			rep.BlindOverwrites += srv.BlindOverwrites
		}
		rep.Faults += sw.Injectors[c].Stats().Total()
	}
}

// Digest fingerprints a run's state: rep's counters, the clock, the
// executed and pending event counts, and a hash of every member's
// database dump, commit index and term. The telemetry registry is left
// out, so renaming or deleting a counter does not move it (-metrics dumps
// the registry). Identical for any worker count at a given seed — the
// convergence acceptance check.
func (sw *SyncStormWorld) Digest(rep *SyncStormReport) string {
	h := fnv.New64a()
	for _, dt := range sw.Tiers {
		for _, m := range dt.Members {
			fmt.Fprintf(h, "%s|%d|%d\n", m.Dump(), m.Commit(), m.Term())
		}
	}
	return fmt.Sprintf("%d %d %d %d|%d %d %d %d %d|%d %d|%v %v\nnow=%v executed=%d pending=%d state=%016x\n",
		rep.Writes, rep.Syncs, rep.Confirmed, rep.Overridden,
		rep.Conflicts, rep.Duplicates, rep.Timeouts, rep.Redirects, rep.Faults,
		rep.LostDevice, rep.BlindOverwrites, rep.Converged, rep.ConvergeAfter,
		sw.World.Now(), sw.World.Executed(), sw.World.Pending(), h.Sum64())
}

// SyncStorm is the registry experiment: the same storm under a resilient
// LWW tier, a resilient server-wins tier, and the fragile
// rollback-on-timeout baseline. The resilient rows must report zero lost
// updates; the fragile row must not.
func SyncStorm(seed int64) *Result {
	r := newResult("syncstorm",
		"disconnected-device sync under chaos: resilient policies vs fragile baseline",
		"tier", "devices", "writes", "confirmed", "conflicts", "timeouts", "lost", "converged", "SLO violations")
	for _, policy := range []mobiledb.Policy{mobiledb.PolicyLWW, mobiledb.PolicyServerWins, mobiledb.PolicyFragile} {
		name := policy.String()
		sw, err := BuildSyncStorm(SyncStormConfig{
			Seed: seed, Policy: policy, Workers: Workers,
		})
		if err != nil {
			r.Note("%s: build failed: %v", name, err)
			continue
		}
		tl := obs.NewTimeline(TimelineInterval)
		tl.AttachSharded(sw.World)
		rep, err := sw.Run()
		if err != nil {
			r.Note("%s: run failed: %v", name, err)
			continue
		}
		for _, in := range sw.Injectors {
			tl.IngestFaults(in)
		}
		slo := obs.Evaluate(tl, obs.DefaultRules("syncstorm"))
		r.AttachSLO(name, slo)
		writeTimeline(r, timelineTag("syncstorm", name), tl, slo)
		conv := "no"
		if rep.Converged {
			conv = fmt.Sprintf("+%v", rep.ConvergeAfter)
		}
		r.AddRow(name, fmt.Sprint(rep.Devices), fmt.Sprint(rep.Writes),
			fmt.Sprint(rep.Confirmed), fmt.Sprint(rep.Conflicts),
			fmt.Sprint(rep.Timeouts), fmt.Sprint(rep.Lost()), conv, sloCell(slo))
		r.Set(name+"/lost", float64(rep.Lost()))
		r.Set(name+"/confirmed", float64(rep.Confirmed))
		r.Set(name+"/conflicts", float64(rep.Conflicts))
		r.Set(name+"/wheel_cascades", float64(sw.World.Cascades()))
		converged := 0.0
		if rep.Converged {
			converged = 1
		}
		r.Set(name+"/converged", converged)
		if name == "lww" {
			r.AttachMetrics("syncstorm", sw.World.Snapshot())
		}
	}
	r.Note("per-cluster plan: uplink flap 2s/3s, replica crash 6s/2s, primary failover 10s/3s, sync-crash armed at 15s")
	return r
}
