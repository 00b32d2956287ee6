package cellular

import (
	"testing"

	"mcommerce/internal/simnet"
)

func TestTable5Rows(t *testing.T) {
	// Generation, radio and switching exactly as printed in Table 5.
	tests := []struct {
		std  Standard
		gen  Generation
		rad  RadioKind
		sw   Switching
		data bool
	}{
		{AMPS, Gen1, AnalogVoice, CircuitSwitched, false},
		{TACS, Gen1, AnalogVoice, CircuitSwitched, false},
		{GSM, Gen2, Digital, CircuitSwitched, true},
		{TDMA, Gen2, Digital, CircuitSwitched, true},
		{CDMA, Gen2, Digital, PacketSwitched, true},
		{GPRS, Gen25, Digital, PacketSwitched, true},
		{EDGE, Gen25, Digital, PacketSwitched, true},
		{CDMA2000, Gen3, Digital, PacketSwitched, true},
		{WCDMA, Gen3, Digital, PacketSwitched, true},
	}
	for _, tt := range tests {
		s := tt.std
		if s.Generation != tt.gen || s.Radio != tt.rad || s.Switching != tt.sw || s.SupportsData() != tt.data {
			t.Errorf("%s: got %+v", s.Name, s)
		}
	}
}

func TestPaperProseDataRates(t *testing.T) {
	// "GPRS can support data rates of only about 100 kbps, but its
	// upgraded version EDGE is capable of supporting 384 kbps."
	if GPRS.DataRate != 100*simnet.Kbps {
		t.Errorf("GPRS rate = %v", GPRS.DataRate)
	}
	if EDGE.DataRate != 384*simnet.Kbps {
		t.Errorf("EDGE rate = %v", EDGE.DataRate)
	}
	// 3G supports "wireless multimedia and high-bandwidth services".
	if CDMA2000.DataRate < 384*simnet.Kbps || WCDMA.DataRate < 384*simnet.Kbps {
		t.Error("3G rates must be at least W-CDMA's 384 kbps")
	}
}

func TestOnly3GHasQoS(t *testing.T) {
	// "3G systems with quality-of-service (QoS) capability will dominate."
	for _, s := range Standards() {
		want := s.Generation == Gen3
		if s.QoS != want {
			t.Errorf("%s: QoS = %v, want %v", s.Name, s.QoS, want)
		}
	}
}

func TestGenerationsAreOrderedByRate(t *testing.T) {
	// Later generations must never be slower than earlier ones.
	rank := map[Generation]int{Gen1: 1, Gen2: 2, Gen25: 3, Gen3: 4}
	maxByRank := map[int]simnet.Rate{}
	for _, s := range Standards() {
		r := rank[s.Generation]
		if s.DataRate > maxByRank[r] {
			maxByRank[r] = s.DataRate
		}
	}
	for r := 2; r <= 4; r++ {
		if maxByRank[r] < maxByRank[r-1] {
			t.Errorf("generation rank %d peak rate %v below rank %d's %v",
				r, maxByRank[r], r-1, maxByRank[r-1])
		}
	}
}

func TestCellularBelowWLANBandwidth(t *testing.T) {
	// Paper summary: cellular systems "suffer from the drawback of much
	// lower bandwidth (less than 1 Mbps)" — true for every pre-3G system.
	for _, s := range Standards() {
		if s.Generation == Gen3 {
			continue
		}
		if s.DataRate >= simnet.Mbps {
			t.Errorf("%s: pre-3G rate %v not below 1 Mbps", s.Name, s.DataRate)
		}
	}
}

func TestQoSClassStrings(t *testing.T) {
	tests := []struct {
		c    QoSClass
		want string
	}{
		{Conversational, "conversational"},
		{Streaming, "streaming"},
		{Interactive, "interactive"},
		{Background, "background"},
		{QoSClass(99), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.c.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.c, got, tt.want)
		}
	}
}

// TestByName covers every spelling the command-line tools accept: each
// Table 5 name in any case, plus the UMTS alias for WCDMA.
func TestByName(t *testing.T) {
	for _, c := range []struct {
		name string
		want Standard
	}{
		{"amps", AMPS},
		{"tacs", TACS},
		{"gsm", GSM},
		{"GSM", GSM},
		{"tdma", TDMA},
		{"cdma", CDMA},
		{"gprs", GPRS},
		{"edge", EDGE},
		{"cdma2000", CDMA2000},
		{"CDMA2000", CDMA2000},
		{"wcdma", WCDMA},
		{"WCDMA", WCDMA},
		{"umts", WCDMA},
		{"UMTS", WCDMA},
	} {
		if got, err := ByName(c.name); err != nil || got != c.want {
			t.Errorf("ByName(%q) = %q, %v; want %q", c.name, got.Name, err, c.want.Name)
		}
	}
	for _, bad := range []string{"", "6g", "lte", "cdma20"} {
		if _, err := ByName(bad); err == nil {
			t.Errorf("ByName(%q) accepted", bad)
		}
	}
}
