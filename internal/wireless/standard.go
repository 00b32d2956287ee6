package wireless

import (
	"fmt"
	"strings"

	"mcommerce/internal/simnet"
)

// Modulation is the physical-layer modulation scheme of a WLAN standard,
// as listed in Table 4 of the paper.
type Modulation string

// Modulation schemes from Table 4.
const (
	GFSK   Modulation = "GFSK"
	HRDSSS Modulation = "HR-DSSS"
	OFDM   Modulation = "OFDM"
)

// Standard describes one WLAN technology row of Table 4.
type Standard struct {
	// Name is the standard's designation ("802.11b (Wi-Fi)").
	Name string
	// MaxRate is the maximum data transfer rate (channel bandwidth).
	MaxRate simnet.Rate
	// RangeMin and RangeMax bound the typical transmission range in
	// meters. RangeMax is the hard delivery cutoff in the radio model.
	RangeMin, RangeMax float64
	// Modulation is the modulation technique.
	Modulation Modulation
	// BandGHz is the operational frequency band.
	BandGHz float64
}

// The five WLAN standards of Table 4.
var (
	Bluetooth = Standard{
		Name:     "Bluetooth",
		MaxRate:  1 * simnet.Mbps,
		RangeMin: 5, RangeMax: 10,
		Modulation: GFSK,
		BandGHz:    2.4,
	}
	IEEE80211b = Standard{
		Name:     "802.11b (Wi-Fi)",
		MaxRate:  11 * simnet.Mbps,
		RangeMin: 50, RangeMax: 100,
		Modulation: HRDSSS,
		BandGHz:    2.4,
	}
	IEEE80211a = Standard{
		Name:     "802.11a",
		MaxRate:  54 * simnet.Mbps,
		RangeMin: 50, RangeMax: 100,
		Modulation: OFDM,
		BandGHz:    5,
	}
	HiperLAN2 = Standard{
		Name:     "HiperLAN2",
		MaxRate:  54 * simnet.Mbps,
		RangeMin: 50, RangeMax: 300,
		Modulation: OFDM,
		BandGHz:    5,
	}
	IEEE80211g = Standard{
		Name:     "802.11g",
		MaxRate:  54 * simnet.Mbps,
		RangeMin: 50, RangeMax: 150,
		Modulation: OFDM,
		BandGHz:    2.4,
	}
)

// Standards returns the Table 4 rows in the paper's order. The slice is
// freshly allocated.
func Standards() []Standard {
	return []Standard{Bluetooth, IEEE80211b, IEEE80211a, HiperLAN2, IEEE80211g}
}

// ByName looks a standard up by its full name ("802.11b (Wi-Fi)"), the
// first word of it ("802.11b", "hiperlan2") or the "wifi"/"wi-fi" alias
// for 802.11b, ignoring case.
func ByName(name string) (Standard, error) {
	if strings.EqualFold(name, "wifi") || strings.EqualFold(name, "wi-fi") {
		return IEEE80211b, nil
	}
	for _, std := range Standards() {
		if strings.EqualFold(std.Name, name) || strings.EqualFold(strings.Fields(std.Name)[0], name) {
			return std, nil
		}
	}
	return Standard{}, fmt.Errorf("unknown WLAN standard %q", name)
}

// RateAt returns the effective transmission rate at distance d meters,
// applying the stepdown schedule: full nominal rate within 50% of range,
// half rate to 80%, quarter rate to 100%, zero beyond.
func (s Standard) RateAt(d float64) simnet.Rate {
	switch {
	case d < 0:
		return 0
	case d <= 0.5*s.RangeMax:
		return s.MaxRate
	case d <= 0.8*s.RangeMax:
		return s.MaxRate / 2
	case d <= s.RangeMax:
		return s.MaxRate / 4
	default:
		return 0
	}
}
