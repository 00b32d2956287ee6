package experiments

import (
	"fmt"
	"time"

	"mcommerce/internal/simnet"
	"mcommerce/internal/workload"
)

// The scale experiment exercises the sharded executor at population
// sizes the full-fidelity deployments cannot reach: G gateway clusters,
// each a host plus C cell aggregator nodes carrying S virtual stations
// apiece (workload.Flows). Each cluster lives on its own shard: the
// inter-cluster backbone ring is the only link crossing shards and its
// delay the lookahead. A configurable per-mille of every cell's stations
// target the next cluster's host, keeping the backbone (and the
// cross-shard machinery) under continuous load.

// Workers is the worker-lane count the registry's sharded experiments
// ("scale" and "syncstorm") run with. Output is byte-identical for any
// value — it only changes how many goroutines execute the windows
// (mcbench -shards sets it).
var Workers = 1

// Link profiles of the scale topology. Uplinks stay inside a cluster's
// shard; the backbone delay is the conservative window.
var (
	scaleUplink   = simnet.LinkConfig{Rate: 10 * simnet.Mbps, Delay: 500 * time.Microsecond, QueueLen: 256}
	scaleBackbone = simnet.LinkConfig{Rate: 1 * simnet.Gbps, Delay: 10 * time.Millisecond, QueueLen: 1024}
)

// ScaleConfig sizes a scale world. Zero fields take defaults.
type ScaleConfig struct {
	Seed            int64
	Gateways        int // clusters (default 4)
	CellsPerGateway int // aggregator nodes per cluster (default 2)
	StationsPerCell int // virtual stations per cell (default 50, < 64000)
	// RemotePerMille of each cell's stations target the next cluster's
	// host instead of the local one (default 200).
	RemotePerMille int
	ThinkMean      time.Duration // default 2s
	Duration       time.Duration // virtual horizon (default 30s)
	Workers        int           // worker lanes for Run (default 1)
}

// scaleRespBytes sizes the echo response to each scale flow operation.
const scaleRespBytes = 1024

func (c *ScaleConfig) defaults() {
	if c.Gateways <= 0 {
		c.Gateways = 4
	}
	if c.CellsPerGateway <= 0 {
		c.CellsPerGateway = 2
	}
	if c.StationsPerCell <= 0 {
		c.StationsPerCell = 50
	}
	if c.RemotePerMille <= 0 || c.RemotePerMille > 1000 {
		c.RemotePerMille = 200
	}
	if c.ThinkMean <= 0 {
		c.ThinkMean = 2 * time.Second
	}
	if c.Duration <= 0 {
		c.Duration = 30 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
}

// ScaleWorld is a built scale topology, ready to run.
type ScaleWorld struct {
	Cfg   ScaleConfig
	World *simnet.Sharded
	Hosts []*simnet.Node
	Echos []*workload.Echo
	Cells [][]*simnet.Node
	Flows [][]*workload.Flows
}

// BuildScale builds the world: cluster c (a host and its cells) on shard
// c, Connect for the cell uplinks and the backbone ring of Cross links
// between the hosts.
func BuildScale(cfg ScaleConfig) (*ScaleWorld, error) {
	cfg.defaults()
	G, C, S := cfg.Gateways, cfg.CellsPerGateway, cfg.StationsPerCell
	if S > 64000 {
		return nil, fmt.Errorf("experiments: %d stations per cell overflow the cell's port space", S)
	}

	hostKey := func(c int) string { return fmt.Sprintf("host%d", c) }
	cellKey := func(c, j int) string { return fmt.Sprintf("cell%d.%d", c, j) }

	w := simnet.NewSharded(cfg.Seed, G)
	sw := &ScaleWorld{Cfg: cfg, World: w}

	// Clusters: each host and its cells, with their uplinks, on shard c.
	sw.Hosts = make([]*simnet.Node, G)
	sw.Cells = make([][]*simnet.Node, G)
	for c := 0; c < G; c++ {
		net := w.Shard(c)
		host := net.NewNode(hostKey(c))
		host.Forwarding = true
		sw.Hosts[c] = host
		sw.Cells[c] = make([]*simnet.Node, C)
		for j := 0; j < C; j++ {
			cell := net.NewNode(cellKey(c, j))
			up := scaleUplink
			up.Name = fmt.Sprintf("up-%d-%d", c, j)
			l := simnet.Connect(cell, host, up)
			cell.SetDefaultRoute(l.IfaceA())
			host.SetRoute(cell.ID, l.IfaceB())
			sw.Cells[c][j] = cell
		}
	}

	// Remote routing: cluster c's stations only ever target cluster
	// (c+1)%G, so the next host routes replies back to cluster c's cells.
	_, fromNext, err := buildRing(w, sw.Hosts, scaleBackbone, "bb-")
	if err != nil {
		return nil, err
	}
	for c := range fromNext {
		next := (c + 1) % G
		for j := 0; j < C; j++ {
			sw.Hosts[next].SetRoute(sw.Cells[c][j].ID, fromNext[c])
		}
	}

	// Services and populations.
	sw.Echos = make([]*workload.Echo, G)
	sw.Flows = make([][]*workload.Flows, G)
	for c := 0; c < G; c++ {
		e, err := workload.ServeEcho(sw.Hosts[c], hostKey(c), scaleRespBytes)
		if err != nil {
			return nil, fmt.Errorf("experiments: echo %d: %w", c, err)
		}
		sw.Echos[c] = e
		sw.Flows[c] = make([]*workload.Flows, C)
		next := (c + 1) % G
		local := simnet.Addr{Node: sw.Hosts[c].ID, Port: workload.EchoPort}
		remote := simnet.Addr{Node: sw.Hosts[next].ID, Port: workload.EchoPort}
		nRemote := S * cfg.RemotePerMille / 1000
		if G == 1 {
			nRemote = 0
		}
		for j := 0; j < C; j++ {
			f, err := workload.NewFlows(sw.Cells[c][j], cellKey(c, j), workload.FlowConfig{
				Stations:  S,
				FirstPort: 1000,
				Target: func(i int) simnet.Addr {
					if i < nRemote {
						return remote
					}
					return local
				},
				ThinkMean: cfg.ThinkMean,
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: flows %d.%d: %w", c, j, err)
			}
			sw.Flows[c][j] = f
		}
	}
	return sw, nil
}

// buildRing joins hosts[c], each on its own shard, into the backbone:
// a chain for two hosts, a ring for three or more. It creates one Cross
// link per pair c→(c+1)%G in order of c, named prefix+"c-(c+1)", and
// routes every host to the next one. toNext[c] is host c's interface
// toward host (c+1)%G and fromNext[c] that host's interface back toward
// host c; both are empty for a single host.
func buildRing(w *simnet.Sharded, hosts []*simnet.Node, bb simnet.LinkConfig, prefix string) (toNext, fromNext []*simnet.Iface, err error) {
	G := len(hosts)
	if G < 2 {
		return nil, nil, nil
	}
	toNext = make([]*simnet.Iface, G)
	fromNext = make([]*simnet.Iface, G)
	links := G
	if G == 2 {
		links = 1 // the link 0-1 is also the way back from 1 to 0
	}
	for a := 0; a < links; a++ {
		b := (a + 1) % G
		cfg := bb
		cfg.Name = fmt.Sprintf("%s%d-%d", prefix, a, b)
		l, err := w.Cross(hosts[a], hosts[b], cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: backbone %s: %w", cfg.Name, err)
		}
		toNext[a], fromNext[a] = l.IfaceA(), l.IfaceB()
	}
	if G == 2 {
		toNext[1], fromNext[1] = fromNext[0], toNext[0]
	}
	for c, out := range toNext {
		hosts[c].SetRoute(hosts[(c+1)%G].ID, out)
	}
	return toNext, fromNext, nil
}

// Stations returns the total virtual-station population.
func (sw *ScaleWorld) Stations() int {
	return sw.Cfg.Gateways * sw.Cfg.CellsPerGateway * sw.Cfg.StationsPerCell
}

// Run executes the configured horizon on cfg.Workers lanes and reports.
func (sw *ScaleWorld) Run() (*ScaleReport, error) {
	if err := sw.World.RunFor(sw.Cfg.Duration, sw.Cfg.Workers); err != nil {
		return nil, err
	}
	return sw.Report(), nil
}

// Report summarizes the world's state so far.
func (sw *ScaleWorld) Report() *ScaleReport {
	r := &ScaleReport{
		Stations: sw.Stations(),
		Shards:   sw.World.NumShards(),
		Executed: sw.World.Executed(),
		Clusters: make([]ScaleCluster, sw.Cfg.Gateways),
	}
	r.Cascades = sw.World.Cascades()
	for c := range r.Clusters {
		cl := &r.Clusters[c]
		cl.Served = sw.Echos[c].Served
		for _, f := range sw.Flows[c] {
			cl.Ops += f.Ops
			cl.Timeouts += f.Timeouts
		}
		r.Ops += cl.Ops
		r.Timeouts += cl.Timeouts
	}
	return r
}

// Digest is the byte-comparable fingerprint of a run: merged metrics,
// executed-event count and virtual clock. Two runs of the same build at
// different worker counts must produce identical digests.
func (sw *ScaleWorld) Digest() string {
	return fmt.Sprintf("%snow=%v executed=%d pending=%d\n",
		sw.World.Snapshot().String(), sw.World.Now(), sw.World.Executed(), sw.World.Pending())
}

// ScaleCluster is one cluster's totals.
type ScaleCluster struct {
	Ops      uint64
	Timeouts uint64
	Served   uint64
}

// ScaleReport is a deterministic run summary (virtual quantities only —
// wall-clock never appears here, so output is reproducible).
type ScaleReport struct {
	Stations int
	Shards   int
	Executed uint64
	Ops      uint64
	Timeouts uint64
	// Scheduler timing-wheel slot cascades summed over shards
	// (deterministic and worker-lane-invariant, like Executed).
	Cascades uint64
	Clusters []ScaleCluster
}

// Scale is the registry experiment: a modest population demonstrating
// the sharded engine end to end, with per-cluster op totals.
func Scale(seed int64) *Result {
	cfg := ScaleConfig{
		Seed:            seed,
		Gateways:        4,
		CellsPerGateway: 2,
		StationsPerCell: 50,
		ThinkMean:       500 * time.Millisecond,
		Duration:        10 * time.Second,
		Workers:         Workers,
	}
	r := newResult("scale", "sharded scale: virtual-station flows across gateway clusters",
		"cluster", "stations", "ops", "timeouts", "served")
	sw, err := BuildScale(cfg)
	if err != nil {
		r.Note("build failed: %v", err)
		return r
	}
	rep, err := sw.Run()
	if err != nil {
		r.Note("run failed: %v", err)
		return r
	}
	perCluster := cfg.CellsPerGateway * cfg.StationsPerCell
	for c, cl := range rep.Clusters {
		r.AddRow(fmt.Sprintf("%d", c), fmt.Sprintf("%d", perCluster),
			fmt.Sprintf("%d", cl.Ops), fmt.Sprintf("%d", cl.Timeouts), fmt.Sprintf("%d", cl.Served))
		r.Set(fmt.Sprintf("cluster%d/ops", c), float64(cl.Ops))
	}
	r.Set("ops", float64(rep.Ops))
	r.Set("timeouts", float64(rep.Timeouts))
	r.Set("executed", float64(rep.Executed))
	r.Set("wheel_cascades", float64(rep.Cascades))
	r.Note("stations=%d shards=%d lookahead=%v ops=%d timeouts=%d wheel_cascades=%d",
		rep.Stations, rep.Shards, sw.World.Lookahead(), rep.Ops, rep.Timeouts, rep.Cascades)
	r.AttachMetrics("scale", sw.World.Snapshot())
	return r
}
