package wireless

import (
	"testing"
	"testing/quick"

	"mcommerce/internal/simnet"
)

func TestTable4Rows(t *testing.T) {
	// The five rows of Table 4, exactly as printed in the paper.
	tests := []struct {
		std      Standard
		name     string
		rate     simnet.Rate
		min, max float64
		mod      Modulation
		band     float64
	}{
		{Bluetooth, "Bluetooth", 1 * simnet.Mbps, 5, 10, GFSK, 2.4},
		{IEEE80211b, "802.11b (Wi-Fi)", 11 * simnet.Mbps, 50, 100, HRDSSS, 2.4},
		{IEEE80211a, "802.11a", 54 * simnet.Mbps, 50, 100, OFDM, 5},
		{HiperLAN2, "HiperLAN2", 54 * simnet.Mbps, 50, 300, OFDM, 5},
		{IEEE80211g, "802.11g", 54 * simnet.Mbps, 50, 150, OFDM, 2.4},
	}
	for _, tt := range tests {
		s := tt.std
		if s.Name != tt.name || s.MaxRate != tt.rate || s.RangeMin != tt.min ||
			s.RangeMax != tt.max || s.Modulation != tt.mod || s.BandGHz != tt.band {
			t.Errorf("%s: got %+v", tt.name, s)
		}
	}
}

func TestStandardsOrderMatchesPaper(t *testing.T) {
	want := []string{"Bluetooth", "802.11b (Wi-Fi)", "802.11a", "HiperLAN2", "802.11g"}
	got := Standards()
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i] {
			t.Errorf("Standards()[%d] = %s, want %s", i, got[i].Name, want[i])
		}
	}
}

func TestRateAtStepdown(t *testing.T) {
	s := IEEE80211b // 11 Mbps, range 100 m
	tests := []struct {
		d    float64
		want simnet.Rate
	}{
		{0, 11 * simnet.Mbps},
		{50, 11 * simnet.Mbps},
		{50.1, 5.5 * simnet.Mbps},
		{80, 5.5 * simnet.Mbps},
		{81, 2.75 * simnet.Mbps},
		{100, 2.75 * simnet.Mbps},
		{100.1, 0},
		{-1, 0},
	}
	for _, tt := range tests {
		if got := s.RateAt(tt.d); got != tt.want {
			t.Errorf("RateAt(%.1f) = %v, want %v", tt.d, got, tt.want)
		}
	}
}

// Property: rate is non-increasing in distance and never exceeds nominal.
func TestRateAtMonotoneProperty(t *testing.T) {
	for _, std := range Standards() {
		std := std
		prop := func(a, b uint16) bool {
			d1 := float64(a) * std.RangeMax / 65535
			d2 := float64(b) * std.RangeMax / 65535
			if d1 > d2 {
				d1, d2 = d2, d1
			}
			r1, r2 := std.RateAt(d1), std.RateAt(d2)
			return r1 >= r2 && r1 <= std.MaxRate
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Errorf("%s: %v", std.Name, err)
		}
	}
}

func TestBluetoothIsPersonalAreaScale(t *testing.T) {
	// §6.1: "Bluetooth technology supports very limited coverage range and
	// throughput" — it must be strictly dominated by every other standard.
	for _, std := range Standards()[1:] {
		if Bluetooth.MaxRate >= std.MaxRate {
			t.Errorf("Bluetooth rate %v not below %s's %v", Bluetooth.MaxRate, std.Name, std.MaxRate)
		}
		if Bluetooth.RangeMax >= std.RangeMax {
			t.Errorf("Bluetooth range %v not below %s's %v", Bluetooth.RangeMax, std.Name, std.RangeMax)
		}
	}
}

// TestByName covers every spelling the command-line tools accept: the
// full name, its first word, the Wi-Fi aliases, in any case.
func TestByName(t *testing.T) {
	for _, c := range []struct {
		name string
		want Standard
	}{
		{"bluetooth", Bluetooth},
		{"Bluetooth", Bluetooth},
		{"802.11b", IEEE80211b},
		{"802.11b (Wi-Fi)", IEEE80211b},
		{"wifi", IEEE80211b},
		{"wi-fi", IEEE80211b},
		{"Wi-Fi", IEEE80211b},
		{"802.11a", IEEE80211a},
		{"hiperlan2", HiperLAN2},
		{"HiperLAN2", HiperLAN2},
		{"802.11g", IEEE80211g},
	} {
		if got, err := ByName(c.name); err != nil || got != c.want {
			t.Errorf("ByName(%q) = %q, %v; want %q", c.name, got.Name, err, c.want.Name)
		}
	}
	for _, bad := range []string{"", "802.11zz", "(Wi-Fi)", "802.11"} {
		if _, err := ByName(bad); err == nil {
			t.Errorf("ByName(%q) accepted", bad)
		}
	}
}
