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
// instance — the aggregates live on the Flows scope — so a million
// stations cost megabytes, not gigabytes, and the steady-state op loop
// allocates nothing.

// EchoPort is the well-known port ServeEcho answers on.
const EchoPort simnet.Port = 9

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
	// ReqBytes is the request payload size.
	ReqBytes int
	// Timeout abandons an operation (counted, not retried) so a lossy
	// world cannot wedge a station forever.
	Timeout time.Duration
	// Start delays every station's first fire, on top of one initial
	// think draw that staggers the population.
	Start time.Duration
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
		cfg.ThinkMean = 2 * time.Second
	}
	if cfg.ReqBytes <= 0 {
		cfg.ReqBytes = 128
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	f := &Flows{cfg: cfg, node: nd, u: simnet.UDPOf(nd)}
	sc := nd.Network().Metrics.Instance("workload.flows." + metrics.Sanitize(name))
	sc.AliasCounter("ops", &f.Ops)
	sc.AliasCounter("timeouts", &f.Timeouts)
	f.latency = sc.Histogram("latency")

	sched := nd.Sched()
	f.stations = make([]flowStation, cfg.Stations)
	for i := range f.stations {
		st := &f.stations[i]
		st.f = f
		st.port = cfg.FirstPort + simnet.Port(i)
		st.target = cfg.Target(i)
		if err := f.u.Listen(st.port, st.reply); err != nil {
			return nil, fmt.Errorf("workload: flows %q: %w", name, err)
		}
		think := time.Duration(sched.Rand().ExpFloat64() * float64(cfg.ThinkMean))
		sched.AfterCall(cfg.Start+think, flowFire, st)
	}
	return f, nil
}

// Stations returns the population size.
func (f *Flows) Stations() int { return len(f.stations) }

// fire issues one operation: start a (sampled) trace root, send the
// request under it, arm the timeout. Runs on the owning shard only. The
// timeout reclaims the just-fired think timer's slot via Rearm, so the
// station's whole lifecycle cycles one arena slot plus the delivery
// events.
func (st *flowStation) fire() {
	f := st.f
	st.pending = true
	st.sentAt = f.node.Sched().Now()
	tracer := f.node.Network().Tracer
	st.ctx = tracer.StartTrace("scale.op", trace.LayerStation)
	prev := tracer.Swap(st.ctx)
	f.u.Send(st.port, st.target, nil, f.cfg.ReqBytes)
	tracer.Swap(prev)
	st.timeout = f.node.Sched().Rearm(f.cfg.Timeout, flowExpire, st)
}

// reply completes the pending operation and schedules the next think.
// Late replies after a timeout are ignored.
func (st *flowStation) reply(from simnet.Addr, body any, bytes int) {
	if !st.pending {
		return
	}
	f := st.f
	st.pending = false
	st.timeout.Cancel()
	f.Ops++
	sched := f.node.Sched()
	f.latency.Observe(sched.Now() - st.sentAt)
	tracer := f.node.Network().Tracer
	tracer.Finish(st.ctx)
	st.ctx = trace.Context{}
	think := time.Duration(sched.Rand().ExpFloat64() * float64(f.cfg.ThinkMean))
	sched.Rearm(think, flowFire, st)
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
	sched.Rearm(think, flowFire, st)
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
	if err := u.Listen(EchoPort, func(from simnet.Addr, body any, bytes int) {
		e.Served++
		u.Send(EchoPort, from, nil, respBytes)
	}); err != nil {
		return nil, err
	}
	return e, nil
}
