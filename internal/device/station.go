package device

import (
	"errors"
	"fmt"
	"time"

	"mcommerce/internal/simnet"
)

// Station errors.
var (
	// ErrOutOfMemory reports content exceeding free RAM.
	ErrOutOfMemory = errors.New("device: out of memory")
	// ErrBatteryDead reports an empty battery.
	ErrBatteryDead = errors.New("device: battery exhausted")
	// ErrPoweredOff reports an operation on a station with no charge left.
	ErrPoweredOff = errors.New("device: powered off")
)

// Energy model constants: the per-byte receive cost and CPU power, scaled by
// the OS PowerFactor. Values are period-plausible and documented in DESIGN.md;
// the experiments depend only on their relative effects.
const (
	rxJoulesPerByte = 2e-6
	cpuWatts        = 0.5
	voltsNominal    = 3.7
)

// cyclesPerByte is the page-processing cost model: parsing and layout of
// markup costs this many CPU cycles per content byte.
const cyclesPerByte = 400

// Station is a powered-on mobile station: a Table 2 profile attached to a
// simulated node, with live RAM, battery and CPU accounting.
type Station struct {
	Profile
	node *simnet.Node

	freeRAM   int
	batteryJ  float64
	capacityJ float64

	// layouts memoizes Browser.layout for every browser on the station.
	layouts map[layoutKey]Page
}

// NewStation creates a station's node in the network and boots it. Half of
// RAM is considered available to applications (the OS and ROM shadowing
// take the rest).
func NewStation(net *simnet.Network, p Profile) *Station {
	capacity := p.BatterymAh / 1000 * voltsNominal * 3600 // joules
	st := &Station{
		Profile:   p,
		node:      net.NewNode(p.Name()),
		freeRAM:   p.RAMBytes / 2,
		batteryJ:  capacity,
		capacityJ: capacity,
	}
	return st
}

// Node returns the station's network node.
func (s *Station) Node() *simnet.Node { return s.node }

// PoweredOn reports whether the station is running: it boots on and
// stays on while its battery has charge left.
func (s *Station) PoweredOn() bool { return s.batteryJ > 0 }

// FreeRAM returns bytes available to applications.
func (s *Station) FreeRAM() int { return s.freeRAM }

// Battery returns the remaining battery fraction in [0,1].
func (s *Station) Battery() float64 {
	if s.capacityJ <= 0 {
		return 0
	}
	f := s.batteryJ / s.capacityJ
	if f < 0 {
		return 0
	}
	return f
}

// AllocRAM reserves application memory.
func (s *Station) AllocRAM(n int) error {
	if n > s.freeRAM {
		return fmt.Errorf("%w: need %d, free %d", ErrOutOfMemory, n, s.freeRAM)
	}
	s.freeRAM -= n
	return nil
}

// ReleaseRAM releases application memory, clamped to the boot-time pool.
func (s *Station) ReleaseRAM(n int) {
	s.freeRAM += n
	if s.freeRAM > s.RAMBytes/2 {
		s.freeRAM = s.RAMBytes / 2
	}
}

// ProcessingDelay returns how long the station's CPU needs to process n
// bytes of content (Table 2's processor column in action).
func (s *Station) ProcessingDelay(n int) time.Duration {
	if s.CPUMHz <= 0 {
		return 0
	}
	cycles := float64(n) * cyclesPerByte
	sec := cycles / (s.CPUMHz * 1e6)
	return time.Duration(sec * float64(time.Second))
}

// DrainRx charges the battery for receiving n bytes.
func (s *Station) DrainRx(n int) { s.drain(rxJoulesPerByte * float64(n)) }

// DrainCPU charges the battery for d of CPU work.
func (s *Station) DrainCPU(d time.Duration) { s.drain(cpuWatts * d.Seconds()) }

func (s *Station) drain(j float64) {
	s.batteryJ -= j * s.OS.PowerFactor
	if s.batteryJ < 0 {
		s.batteryJ = 0
	}
}

// ScreenfulsFor estimates how many screenfuls n bytes of rendered text
// occupy on this display (a rough 8x12 px cell per character).
func (s *Station) ScreenfulsFor(textLen int) int {
	perScreen := (s.ScreenW / 8) * (s.ScreenH / 12)
	if perScreen <= 0 {
		return 1
	}
	n := (textLen + perScreen - 1) / perScreen
	if n < 1 {
		n = 1
	}
	return n
}
