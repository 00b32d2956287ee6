package faults

import (
	"fmt"
	"sort"
	"strings"

	"mcommerce/internal/simnet"
	"mcommerce/internal/trace"
)

// Stats counts applied and healed faults.
type Stats struct {
	LinkDowns, LinkUps         uint64
	IfaceDowns, IfaceUps       uint64
	Brownouts, Restores        uint64
	Crashes, Restarts          uint64
	Partitions, Heals          uint64
	SyncCrashArms, SyncCrashes uint64
}

// Total returns the number of fault applications (not heals). An armed
// sync-crash that never fired is not an application.
func (s Stats) Total() uint64 {
	return s.LinkDowns + s.IfaceDowns + s.Brownouts + s.Crashes + s.Partitions + s.SyncCrashes
}

// crashTarget is a registered node plus its state-loss hooks.
type crashTarget struct {
	node      *simnet.Node
	onCrash   func()
	onRestart func()
}

// syncTarget is a crash target plus the arming hook its sync machinery
// exposes.
type syncTarget struct {
	crashTarget
	// arm installs fire as the begin-session tripwire; the owner calls
	// fire() when the node's next sync session starts.
	arm func(fire func())
}

// Injector binds a Plan's symbolic targets to live simnet objects and
// executes the events through scheduler timers. Register every target
// before Schedule; unknown targets are a hard error so a typo in a plan
// cannot silently become a fault-free run.
type Injector struct {
	net    *simnet.Network
	links  map[string]*simnet.Link
	ifaces map[string]*simnet.Iface
	nodes  map[string]*crashTarget
	cuts   map[string][]*simnet.Link
	syncs  map[string]*syncTarget

	stats  Stats
	log    []string
	events []FiredEvent
}

// NewInjector creates an injector over the network. Its fault counters
// register under faults.* (a second injector gets faults#2.*).
func NewInjector(net *simnet.Network) *Injector {
	in := &Injector{
		net:    net,
		links:  make(map[string]*simnet.Link),
		ifaces: make(map[string]*simnet.Iface),
		nodes:  make(map[string]*crashTarget),
		cuts:   make(map[string][]*simnet.Link),
		syncs:  make(map[string]*syncTarget),
	}
	sc := net.Metrics.Instance("faults")
	sc.AliasCounter("link_downs", &in.stats.LinkDowns)
	sc.AliasCounter("link_ups", &in.stats.LinkUps)
	sc.AliasCounter("iface_downs", &in.stats.IfaceDowns)
	sc.AliasCounter("iface_ups", &in.stats.IfaceUps)
	sc.AliasCounter("brownouts", &in.stats.Brownouts)
	sc.AliasCounter("restores", &in.stats.Restores)
	sc.AliasCounter("crashes", &in.stats.Crashes)
	sc.AliasCounter("restarts", &in.stats.Restarts)
	sc.AliasCounter("partitions", &in.stats.Partitions)
	sc.AliasCounter("heals", &in.stats.Heals)
	sc.AliasCounter("sync_crash_arms", &in.stats.SyncCrashArms)
	sc.AliasCounter("sync_crashes", &in.stats.SyncCrashes)
	return in
}

// RegisterLink names a link for LinkDown and Brownout events.
func (in *Injector) RegisterLink(name string, l *simnet.Link) { in.links[name] = l }

// RegisterIface names an interface for IfaceDown events.
func (in *Injector) RegisterIface(name string, i *simnet.Iface) { in.ifaces[name] = i }

// RegisterNode names a node for NodeCrash events. onCrash runs at crash
// time (drop volatile state there: sessions, caches, reassembly buffers);
// onRestart runs when the node's interfaces come back. Either hook may be
// nil.
func (in *Injector) RegisterNode(name string, n *simnet.Node, onCrash, onRestart func()) {
	in.nodes[name] = &crashTarget{node: n, onCrash: onCrash, onRestart: onRestart}
}

// RegisterCut names a set of links whose simultaneous failure partitions
// the network, for Partition events.
func (in *Injector) RegisterCut(name string, links ...*simnet.Link) { in.cuts[name] = links }

// RegisterSyncTrigger names a node for SyncCrash events. arm is how the
// node's sync machinery exposes its begin-session moment: the injector
// calls arm(fire) when a SyncCrash event applies, and the owner must call
// fire() when the node's next sync session starts (fire is idempotent and
// cheap, so calling it on every session start is fine — only the armed one
// crashes). onCrash and onRestart work as in RegisterNode.
func (in *Injector) RegisterSyncTrigger(name string, n *simnet.Node, onCrash, onRestart func(), arm func(fire func())) {
	in.syncs[name] = &syncTarget{
		crashTarget: crashTarget{node: n, onCrash: onCrash, onRestart: onRestart},
		arm:         arm,
	}
}

// Stats returns a snapshot of the fault counters.
func (in *Injector) Stats() Stats { return in.stats }

// Log returns the applied-fault log: one line per apply/heal, in
// simulation-time order. It is deterministic for a given seed and plan.
func (in *Injector) Log() []string { return append([]string(nil), in.log...) }

func (in *Injector) logf(format string, args ...any) {
	in.log = append(in.log, fmt.Sprintf("[%v] ", in.net.Sched.Now())+fmt.Sprintf(format, args...))
}

// flightDumpMax bounds the spans a crash dump pulls from the flight
// recorder, keeping the fault log readable under dense workloads.
const flightDumpMax = 32

// dumpFlightRecorder appends the tracer's most recent spans to the fault
// log. It only fires for the catastrophic kinds (crashes, partitions) and
// only when the world's tracer is recording: the spans in flight at fault
// time are the forensic record of what the fault interrupted.
func (in *Injector) dumpFlightRecorder() {
	spans := in.net.Tracer.Recent(flightDumpMax)
	if len(spans) == 0 {
		return
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "flight recorder: %d span(s) in flight\n", len(spans))
	trace.WriteDump(&sb, spans)
	for _, line := range strings.Split(strings.TrimRight(sb.String(), "\n"), "\n") {
		in.log = append(in.log, line)
	}
}

// Schedule validates the plan and arms one timer per apply/heal. It
// returns an error (scheduling nothing) if any event names an unknown
// target or kind.
func (in *Injector) Schedule(p *Plan) error {
	var bad []string
	for _, e := range p.Events {
		if err := in.check(e); err != nil {
			bad = append(bad, err.Error())
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("faults: invalid plan %q: %s", p.Name, strings.Join(bad, "; "))
	}
	for _, e := range p.Events {
		e := e
		in.net.Sched.At(e.At, func() { in.apply(e) })
	}
	return nil
}

func (in *Injector) check(e Event) error {
	switch e.Kind {
	case LinkDown, Brownout:
		if in.links[e.Target] == nil {
			return fmt.Errorf("unknown link %q", e.Target)
		}
	case IfaceDown:
		if in.ifaces[e.Target] == nil {
			return fmt.Errorf("unknown iface %q", e.Target)
		}
	case NodeCrash:
		if in.nodes[e.Target] == nil {
			return fmt.Errorf("unknown node %q", e.Target)
		}
	case Partition:
		if in.cuts[e.Target] == nil {
			return fmt.Errorf("unknown cut %q", e.Target)
		}
	case SyncCrash:
		if in.syncs[e.Target] == nil {
			return fmt.Errorf("unknown sync trigger %q", e.Target)
		}
	default:
		return fmt.Errorf("unknown kind %v", e.Kind)
	}
	return nil
}

// apply executes one event's down side and, if the event is not permanent,
// arms the heal timer.
func (in *Injector) apply(e Event) {
	heal := func(fn func()) {
		if e.Duration > 0 {
			in.net.Sched.After(e.Duration, fn)
		}
	}
	switch e.Kind {
	case LinkDown:
		l := in.links[e.Target]
		l.SetDown(true)
		in.stats.LinkDowns++
		in.logf("link %s down", e.Target)
		in.record(LinkDown, e.Target, PhaseApply, "")
		heal(func() {
			l.SetDown(false)
			in.stats.LinkUps++
			in.logf("link %s up", e.Target)
			in.record(LinkDown, e.Target, PhaseHeal, "")
		})
	case IfaceDown:
		i := in.ifaces[e.Target]
		i.SetDown(true)
		in.stats.IfaceDowns++
		in.logf("iface %s down", e.Target)
		in.record(IfaceDown, e.Target, PhaseApply, "")
		heal(func() {
			i.SetDown(false)
			in.stats.IfaceUps++
			in.logf("iface %s up", e.Target)
			in.record(IfaceDown, e.Target, PhaseHeal, "")
		})
	case Brownout:
		l := in.links[e.Target]
		l.Degrade(e.RateFactor, e.ExtraLoss)
		in.stats.Brownouts++
		in.logf("link %s brownout (rate*%.2g loss+%.2g)", e.Target, e.RateFactor, e.ExtraLoss)
		in.record(Brownout, e.Target, PhaseApply, fmt.Sprintf("rate*%.2g loss+%.2g", e.RateFactor, e.ExtraLoss))
		heal(func() {
			l.Restore()
			in.stats.Restores++
			in.logf("link %s restored", e.Target)
			in.record(Brownout, e.Target, PhaseHeal, "")
		})
	case NodeCrash:
		t := in.nodes[e.Target]
		ifaces := t.node.Ifaces()
		for _, i := range ifaces {
			i.SetDown(true)
		}
		if t.onCrash != nil {
			t.onCrash()
		}
		in.stats.Crashes++
		in.logf("node %s crash (%d ifaces down, state lost)", e.Target, len(ifaces))
		in.record(NodeCrash, e.Target, PhaseApply, fmt.Sprintf("%d ifaces down", len(ifaces)))
		in.dumpFlightRecorder()
		heal(func() {
			for _, i := range ifaces {
				i.SetDown(false)
			}
			if t.onRestart != nil {
				t.onRestart()
			}
			in.stats.Restarts++
			in.logf("node %s restart", e.Target)
			in.record(NodeCrash, e.Target, PhaseHeal, "")
		})
	case SyncCrash:
		t := in.syncs[e.Target]
		fired := false
		in.stats.SyncCrashArms++
		in.logf("sync-crash %s armed", e.Target)
		in.record(SyncCrash, e.Target, PhaseArm, "")
		t.arm(func() {
			if fired {
				return
			}
			fired = true
			ifaces := t.node.Ifaces()
			for _, i := range ifaces {
				i.SetDown(true)
			}
			if t.onCrash != nil {
				t.onCrash()
			}
			in.stats.SyncCrashes++
			in.logf("node %s sync-crash (%d ifaces down, state lost)", e.Target, len(ifaces))
			in.record(SyncCrash, e.Target, PhaseApply, fmt.Sprintf("%d ifaces down", len(ifaces)))
			in.dumpFlightRecorder()
			heal(func() {
				for _, i := range ifaces {
					i.SetDown(false)
				}
				if t.onRestart != nil {
					t.onRestart()
				}
				in.stats.Restarts++
				in.logf("node %s restart", e.Target)
				in.record(SyncCrash, e.Target, PhaseHeal, "")
			})
		})
	case Partition:
		links := in.cuts[e.Target]
		for _, l := range links {
			l.SetDown(true)
		}
		in.stats.Partitions++
		in.logf("partition %s (%d links down)", e.Target, len(links))
		in.record(Partition, e.Target, PhaseApply, fmt.Sprintf("%d links down", len(links)))
		in.dumpFlightRecorder()
		heal(func() {
			for _, l := range links {
				l.SetDown(false)
			}
			in.stats.Heals++
			in.logf("partition %s healed", e.Target)
			in.record(Partition, e.Target, PhaseHeal, "")
		})
	}
}

// Targets returns the registered target names per category, sorted — handy
// for building RandomConfig from an already-registered injector.
func (in *Injector) Targets() (links, ifaces, nodes, cuts []string) {
	links = sortedKeys(in.links)
	ifaces = sortedKeys(in.ifaces)
	nodes = sortedKeys(in.nodes)
	cuts = sortedKeys(in.cuts)
	return
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
