package workload

import (
	"fmt"
	"time"

	"mcommerce/internal/metrics"
	"mcommerce/internal/simnet"
	"mcommerce/internal/trace"
)

// This file is the million-station workload tier. The classic Runner
// models each user as a full device.Station with its own node, radio and
// TCP stack — right for fidelity, far too heavy for 10^6 users. Flows
// instead models a station as a virtual entry on a cell aggregator node:
// one UDP port, one pending-op record and one timer each, multiplexed on
// the cell's scheduler. No per-station node, no per-station metrics
// instance — the aggregates live on the Flows scope — and no per-station
// handler: every port holds the one Flows.reply, which finds its station
// by the port the datagram arrived on. So a million stations cost
// megabytes, not gigabytes, and the steady-state op loop allocates
// nothing.

// EchoPort is the well-known port ServeEcho answers on.
const EchoPort simnet.Port = 9

// Flow sizing every population uses: an operation is a flowReqBytes
// request, abandoned (counted, not retried) after flowTimeout so a lossy
// world cannot wedge a station forever.
const (
	flowReqBytes = 256
	flowTimeout  = 10 * time.Second
)

// FlowConfig parameterizes a cell's virtual station population.
type FlowConfig struct {
	// Stations is the number of virtual stations on this cell.
	Stations int
	// FirstPort is the UDP port of station 0 (station i uses FirstPort+i;
	// the range must fit under 65535).
	FirstPort simnet.Port
	// Target returns station i's server address.
	Target func(i int) simnet.Addr
	// ThinkMean is the mean of the exponential think time between an
	// operation's completion and the next fire.
	ThinkMean time.Duration
}

// Flows drives a population of virtual stations from one cell node.
type Flows struct {
	cfg  FlowConfig
	node *simnet.Node
	u    *simnet.UDP

	stations []flowStation

	// Ops and Timeouts are aliased as workload.flows.<name>.{ops,timeouts};
	// latency is workload.flows.<name>.latency over completed operations.
	Ops      uint64
	Timeouts uint64
	latency  metrics.Histogram
}

// flowStation is one virtual station: small enough that a million of
// them is a few hundred megabytes, self-rescheduling via package-level
// callbacks so the op loop never allocates.
type flowStation struct {
	f       *Flows
	target  simnet.Addr
	port    simnet.Port
	sentAt  time.Duration
	timeout simnet.Timer
	ctx     trace.Context
	pending bool
}

func flowFire(a any)   { a.(*flowStation).fire() }
func flowExpire(a any) { a.(*flowStation).expire() }

// NewFlows builds the population on the given cell node and schedules
// every station's first operation. name scopes the aggregate metrics.
func NewFlows(nd *simnet.Node, name string, cfg FlowConfig) (*Flows, error) {
	if cfg.Stations <= 0 {
		return nil, fmt.Errorf("workload: flows %q needs stations > 0", name)
	}
	if int(cfg.FirstPort)+cfg.Stations > 65535 {
		return nil, fmt.Errorf("workload: flows %q: %d stations from port %d overflow the port space", name, cfg.Stations, cfg.FirstPort)
	}
	if cfg.Target == nil {
		return nil, fmt.Errorf("workload: flows %q needs a Target", name)
	}
	if cfg.ThinkMean <= 0 {
		return nil, fmt.Errorf("workload: flows %q needs think mean > 0", name)
	}
	f := &Flows{cfg: cfg, node: nd, u: simnet.UDPOf(nd)}
	sc := nd.Network().Metrics.Instance("workload.flows." + metrics.Sanitize(name))
	sc.AliasCounter("ops", &f.Ops)
	sc.AliasCounter("timeouts", &f.Timeouts)
	f.latency = sc.Histogram("latency")

	sched := nd.Sched()
	f.stations = make([]flowStation, cfg.Stations)
	// One method value serves every station's port: written inside the
	// loop, f.reply would allocate a closure per station.
	reply := f.reply
	for i := range f.stations {
		st := &f.stations[i]
		st.f = f
		st.port = cfg.FirstPort + simnet.Port(i)
		st.target = cfg.Target(i)
		if err := f.u.Listen(st.port, reply); err != nil {
			return nil, fmt.Errorf("workload: flows %q: %w", name, err)
		}
		think := time.Duration(sched.Rand().ExpFloat64() * float64(cfg.ThinkMean))
		sched.AfterCall(think, flowFire, st)
	}
	return f, nil
}

// fire issues one operation: start a (sampled) trace root, send the
// request under it, arm the timeout. Runs on the owning shard only. The
// scheduler frees the just-fired think timer's slot before this runs, and
// the request's delivery event or the timeout pops it again, so the
// station's whole lifecycle cycles a fixed set of arena slots.
func (st *flowStation) fire() {
	f := st.f
	st.pending = true
	st.sentAt = f.node.Sched().Now()
	tracer := f.node.Network().Tracer
	st.ctx = tracer.StartTrace("scale.op", trace.LayerStation)
	prev := tracer.Swap(st.ctx)
	f.u.Send(st.port, st.target, nil, flowReqBytes)
	tracer.Swap(prev)
	st.timeout = f.node.Sched().AfterCall(flowTimeout, flowExpire, st)
}

// reply completes the pending operation of the station bound on port to
// and schedules its next think. Late replies after a timeout are ignored.
func (f *Flows) reply(to simnet.Port, _ simnet.Addr, _ any, _ int) {
	st := &f.stations[to-f.cfg.FirstPort]
	if !st.pending {
		return
	}
	st.pending = false
	st.timeout.Cancel()
	f.Ops++
	sched := f.node.Sched()
	f.latency.Observe(sched.Now() - st.sentAt)
	tracer := f.node.Network().Tracer
	tracer.Finish(st.ctx)
	st.ctx = trace.Context{}
	think := time.Duration(sched.Rand().ExpFloat64() * float64(f.cfg.ThinkMean))
	sched.AfterCall(think, flowFire, st)
}

// expire abandons the pending operation and moves on.
func (st *flowStation) expire() {
	f := st.f
	if !st.pending {
		return
	}
	st.pending = false
	f.Timeouts++
	tracer := f.node.Network().Tracer
	tracer.Annotate(st.ctx, "timeout")
	tracer.Finish(st.ctx)
	st.ctx = trace.Context{}
	sched := f.node.Sched()
	think := time.Duration(sched.Rand().ExpFloat64() * float64(f.cfg.ThinkMean))
	sched.AfterCall(think, flowFire, st)
}

// Echo is a minimal request/reply service for the scale workload: every
// datagram is answered with RespBytes. Served is aliased as
// workload.echo.<name>.served.
type Echo struct {
	Served uint64
}

// ServeEcho binds the echo service to EchoPort on nd.
func ServeEcho(nd *simnet.Node, name string, respBytes int) (*Echo, error) {
	e := &Echo{}
	u := simnet.UDPOf(nd)
	nd.Network().Metrics.Instance("workload.echo."+metrics.Sanitize(name)).AliasCounter("served", &e.Served)
	if err := u.Listen(EchoPort, func(_ simnet.Port, from simnet.Addr, body any, bytes int) {
		e.Served++
		u.Send(EchoPort, from, nil, respBytes)
	}); err != nil {
		return nil, err
	}
	return e, nil
}
