package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// Kind classifies a fault event.
type Kind uint8

// Fault kinds. Every kind except Brownout is a binary down/up pair; the
// heal side fires Duration after the apply side.
const (
	// LinkDown takes a registered link administratively down, then back up.
	LinkDown Kind = iota + 1
	// IfaceDown takes a registered interface down, then back up (models a
	// radio or NIC outage on one side only).
	IfaceDown
	// Brownout degrades a registered link (rate scaled by RateFactor, loss
	// increased by ExtraLoss), then restores it.
	Brownout
	// NodeCrash downs every interface of a registered node and invokes its
	// crash hook (volatile state loss), then brings the interfaces back and
	// invokes its restart hook.
	NodeCrash
	// Partition downs every link in a registered cut, splitting the
	// network, then heals them all.
	Partition
	// SyncCrash arms a registered sync trigger: the target node crashes
	// the next time one of its sync sessions begins — the nastiest window
	// for a data tier, after the upload left the device but before the
	// verdict landed. Duration times the restart from the *crash*, not
	// from the arming. If no session starts, the trigger stays armed and
	// the node never crashes.
	SyncCrash
)

func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case IfaceDown:
		return "iface-down"
	case Brownout:
		return "brownout"
	case NodeCrash:
		return "node-crash"
	case Partition:
		return "partition"
	case SyncCrash:
		return "sync-crash"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one scripted fault: apply at At, heal at At+Duration.
type Event struct {
	At       time.Duration
	Duration time.Duration // 0 means permanent (never healed)
	Kind     Kind
	// Target names a registered link, interface, node or cut, depending on
	// Kind.
	Target string
	// RateFactor and ExtraLoss parameterize Brownout events (see
	// simnet.Link.Degrade). Ignored for other kinds.
	RateFactor float64
	ExtraLoss  float64
}

func (e Event) String() string {
	heal := "permanent"
	if e.Duration > 0 {
		heal = fmt.Sprintf("for %v", e.Duration)
	}
	extra := ""
	if e.Kind == Brownout {
		extra = fmt.Sprintf(" rate*%.2g loss+%.2g", e.RateFactor, e.ExtraLoss)
	}
	return fmt.Sprintf("%v %s %s %s%s", e.At, e.Kind, e.Target, heal, extra)
}

// Plan is an ordered script of fault events.
type Plan struct {
	Name   string
	Events []Event
}

// NewPlan creates an empty named plan.
func NewPlan(name string) *Plan { return &Plan{Name: name} }

// Add appends an event and returns the plan for chaining.
func (p *Plan) Add(e Event) *Plan {
	p.Events = append(p.Events, e)
	return p
}

// Sort orders events by apply time (stable, so equal-time events keep
// insertion order).
func (p *Plan) Sort() {
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At })
}

// String renders the plan one event per line, in event order — the
// deterministic form reports embed.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fault plan %q (%d events)\n", p.Name, len(p.Events))
	for _, e := range p.Events {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	return b.String()
}

// RandomConfig shapes RandomPlan. Kinds whose target list is empty are
// never drawn.
type RandomConfig struct {
	// Horizon bounds apply times: events start uniformly in [0, Horizon).
	Horizon time.Duration
	// Events is how many events to draw.
	Events int
	// MinDuration and MaxDuration bound each event's outage length.
	// Defaults: 1s and 5s.
	MinDuration, MaxDuration time.Duration
	// Links, Ifaces, Nodes and Cuts list candidate targets per kind.
	Links, Ifaces, Nodes, Cuts []string
}

// A drawn brownout cuts its link's rate to brownoutRateFactor and adds
// brownoutExtraLoss of loss.
const (
	brownoutRateFactor = 0.1
	brownoutExtraLoss  = 0.2
)

// RandomPlan draws a seeded-random plan: same seed and config, same plan,
// byte for byte. Events come out sorted by apply time.
func RandomPlan(seed int64, cfg RandomConfig) *Plan {
	rng := rand.New(rand.NewSource(seed))
	if cfg.MinDuration <= 0 {
		cfg.MinDuration = time.Second
	}
	if cfg.MaxDuration < cfg.MinDuration {
		cfg.MaxDuration = 5 * time.Second
		if cfg.MaxDuration < cfg.MinDuration {
			cfg.MaxDuration = cfg.MinDuration
		}
	}
	// The kind menu is fixed-order, so draws are reproducible.
	type choice struct {
		kind    Kind
		targets []string
	}
	var menu []choice
	if len(cfg.Links) > 0 {
		menu = append(menu, choice{LinkDown, cfg.Links}, choice{Brownout, cfg.Links})
	}
	if len(cfg.Ifaces) > 0 {
		menu = append(menu, choice{IfaceDown, cfg.Ifaces})
	}
	if len(cfg.Nodes) > 0 {
		menu = append(menu, choice{NodeCrash, cfg.Nodes})
	}
	if len(cfg.Cuts) > 0 {
		menu = append(menu, choice{Partition, cfg.Cuts})
	}
	p := NewPlan(fmt.Sprintf("random-%d", seed))
	if len(menu) == 0 || cfg.Horizon <= 0 {
		return p
	}
	for i := 0; i < cfg.Events; i++ {
		c := menu[rng.Intn(len(menu))]
		dur := cfg.MinDuration
		if span := cfg.MaxDuration - cfg.MinDuration; span > 0 {
			dur += time.Duration(rng.Int63n(int64(span)))
		}
		e := Event{
			At:       time.Duration(rng.Int63n(int64(cfg.Horizon))),
			Duration: dur,
			Kind:     c.kind,
			Target:   c.targets[rng.Intn(len(c.targets))],
		}
		if e.Kind == Brownout {
			e.RateFactor = brownoutRateFactor
			e.ExtraLoss = brownoutExtraLoss
		}
		p.Add(e)
	}
	p.Sort()
	return p
}
