package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Kind is a component kind from the paper's system models.
type Kind int

// Component kinds. The first six are Figure 2's mobile commerce
// components; KindClientComputer appears in Figure 1's electronic commerce
// model in place of stations/middleware/wireless.
const (
	KindApplication Kind = iota + 1
	KindMobileStation
	KindMiddleware
	KindWirelessNetwork
	KindWiredNetwork
	KindHostComputer
	KindClientComputer
)

func (k Kind) String() string {
	switch k {
	case KindApplication:
		return "applications"
	case KindMobileStation:
		return "mobile stations"
	case KindMiddleware:
		return "mobile middleware"
	case KindWirelessNetwork:
		return "wireless networks"
	case KindWiredNetwork:
		return "wired networks"
	case KindHostComputer:
		return "host computers"
	case KindClientComputer:
		return "client computers"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Model identifies which of the paper's two system structures a System
// instantiates.
type Model string

// The two system models.
const (
	ModelMC Model = "MC" // Figure 2: mobile commerce, six components
	ModelEC Model = "EC" // Figure 1: electronic commerce, four components
)

// RequiredKinds returns the component kinds the model mandates.
func (m Model) RequiredKinds() []Kind {
	switch m {
	case ModelMC:
		return []Kind{
			KindApplication, KindMobileStation, KindMiddleware,
			KindWirelessNetwork, KindWiredNetwork, KindHostComputer,
		}
	case ModelEC:
		return []Kind{
			KindApplication, KindClientComputer, KindWiredNetwork, KindHostComputer,
		}
	default:
		return nil
	}
}

// chain is the data/control-flow layering of the figures: each kind must
// connect to the next. (Applications associate with both ends; see
// Validate.)
func (m Model) chain() []Kind {
	switch m {
	case ModelMC:
		return []Kind{
			KindMobileStation, KindMiddleware, KindWirelessNetwork,
			KindWiredNetwork, KindHostComputer,
		}
	case ModelEC:
		return []Kind{KindClientComputer, KindWiredNetwork, KindHostComputer}
	default:
		return nil
	}
}

// Component is one named element of a system with a kind and an optional
// implementation reference (the live object realizing it).
type Component struct {
	Kind Kind
	Name string
	// Impl points at the running implementation (a *wap.Gateway, a
	// *wireless.LAN, ...). It is informational; the model graph does not
	// inspect it.
	Impl any
	// Optional marks components the figures draw dashed (i-mode alongside
	// WAP, a second bearer). Optional components do not participate in
	// layering validation.
	Optional bool
}

// ErrInvalidSystem tags all validation failures.
var ErrInvalidSystem = errors.New("core: invalid system")

// System is a structural instance of one of the paper's models.
type System struct {
	Model      Model
	components []*Component
	// edges are undirected associations (the figures' "association" and
	// "bidirectional data/control flow" lines).
	edges map[*Component]map[*Component]bool
}

// NewSystem creates an empty system for a model.
func NewSystem(m Model) *System {
	return &System{Model: m, edges: make(map[*Component]map[*Component]bool)}
}

// Add registers a component and returns it.
func (s *System) Add(kind Kind, name string, impl any) *Component {
	c := &Component{Kind: kind, Name: name, Impl: impl}
	s.components = append(s.components, c)
	return c
}

// Link records a bidirectional association between two components.
func (s *System) Link(a, b *Component) {
	if a == nil || b == nil || a == b {
		return
	}
	if s.edges[a] == nil {
		s.edges[a] = make(map[*Component]bool)
	}
	if s.edges[b] == nil {
		s.edges[b] = make(map[*Component]bool)
	}
	s.edges[a][b] = true
	s.edges[b][a] = true
}

// Linked reports whether two components are associated.
func (s *System) Linked(a, b *Component) bool { return s.edges[a][b] }

// Components returns all components in insertion order. The slice is
// freshly allocated.
func (s *System) Components() []*Component {
	out := make([]*Component, len(s.components))
	copy(out, s.components)
	return out
}

// ByKind returns the components of one kind.
func (s *System) ByKind(k Kind) []*Component {
	var out []*Component
	for _, c := range s.components {
		if c.Kind == k {
			out = append(out, c)
		}
	}
	return out
}

// Validate checks the system against its model:
//
//  1. every required kind is present (Figure 2's six components, Figure
//     1's four);
//  2. the data path is layered as drawn: each non-optional component of
//     chain layer i links to some component of layer i+1;
//  3. applications associate with both the client end (stations/client
//     computers) and host computers, as the figures draw them spanning the
//     stack.
func (s *System) Validate() error {
	var problems []string
	for _, k := range s.Model.RequiredKinds() {
		if len(s.ByKind(k)) == 0 {
			problems = append(problems, fmt.Sprintf("missing component kind %q", k))
		}
	}
	chain := s.Model.chain()
	for i := 0; i+1 < len(chain); i++ {
		lower, upper := s.ByKind(chain[i]), s.ByKind(chain[i+1])
		for _, c := range lower {
			if c.Optional {
				continue
			}
			ok := false
			for _, u := range upper {
				if s.Linked(c, u) {
					ok = true
					break
				}
			}
			if !ok && len(upper) > 0 {
				problems = append(problems, fmt.Sprintf(
					"%s %q has no link to any %s", c.Kind, c.Name, chain[i+1]))
			}
		}
	}
	clientKind := KindMobileStation
	if s.Model == ModelEC {
		clientKind = KindClientComputer
	}
	for _, app := range s.ByKind(KindApplication) {
		if app.Optional {
			continue
		}
		if !s.linkedToKind(app, clientKind) {
			problems = append(problems, fmt.Sprintf("application %q not linked to %s", app.Name, clientKind))
		}
		if !s.linkedToKind(app, KindHostComputer) {
			problems = append(problems, fmt.Sprintf("application %q not linked to host computers", app.Name))
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("%w (%s): %s", ErrInvalidSystem, s.Model, strings.Join(problems, "; "))
	}
	return nil
}

// linkedToKind reports whether c links to any component of kind k.
func (s *System) linkedToKind(c *Component, k Kind) bool {
	for _, other := range s.ByKind(k) {
		if s.Linked(c, other) {
			return true
		}
	}
	return false
}

// Describe renders the component inventory grouped by kind, in the order
// the paper lists the kinds — a textual Figure 1/Figure 2.
func (s *System) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s system structure (paper %s):\n", s.Model, map[Model]string{ModelMC: "Figure 2", ModelEC: "Figure 1"}[s.Model])
	kinds := append([]Kind{KindApplication}, s.Model.chain()...)
	for _, k := range kinds {
		comps := s.ByKind(k)
		if len(comps) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %s:\n", k)
		for _, c := range comps {
			opt := ""
			if c.Optional {
				opt = " (optional)"
			}
			fmt.Fprintf(&b, "    - %s%s\n", c.Name, opt)
		}
	}
	return b.String()
}
