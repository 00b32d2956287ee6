package device

// OS describes a mobile station operating system (Section 4.1: "the
// operating systems, the core of mobile stations, are dominated by just
// three major brands: Palm OS, Pocket PC, and Symbian OS").
type OS struct {
	Name   string
	Vendor string
	Bits   int
	// Preemptive reports preemptive multitasking (EPOC32/Symbian).
	Preemptive bool
	// PowerFactor scales battery drain: Palm OS's plain design gives it
	// "a long battery life, approximately twice that of its rivals",
	// i.e. half their drain.
	PowerFactor float64
}

// The three major mobile operating systems of Section 4.1.
var (
	PalmOS41     = OS{Name: "Palm OS 4.1", Vendor: "Palm", Bits: 32, PowerFactor: 0.5}
	PocketPC2002 = OS{Name: "MS Pocket PC 2002", Vendor: "Microsoft", Bits: 32, Preemptive: true, PowerFactor: 1.0}
	SymbianOS    = OS{Name: "Symbian OS", Vendor: "Symbian", Bits: 32, Preemptive: true, PowerFactor: 1.0}
)

// Profile is one mobile station model: the Table 2 columns plus
// period-typical physical specs the paper withholds.
type Profile struct {
	Vendor string
	Model  string
	OS     OS
	// CPUName and CPUMHz are the Table 2 processor column.
	CPUName string
	CPUMHz  float64
	// RAMBytes and ROMBytes are the installed RAM/ROM column.
	RAMBytes int
	ROMBytes int
	// ScreenW and ScreenH are the display in pixels (augmented).
	ScreenW, ScreenH int
	// BatterymAh is the battery capacity (augmented).
	BatterymAh float64
}

// The five mobile stations of Table 2.
var (
	CompaqIPAQH3870 = Profile{
		Vendor: "Compaq", Model: "iPAQ H3870",
		OS:      PocketPC2002,
		CPUName: "206 MHz Intel StrongARM 32-bit RISC", CPUMHz: 206,
		RAMBytes: 64 << 20, ROMBytes: 32 << 20,
		ScreenW: 240, ScreenH: 320, BatterymAh: 1400,
	}
	Nokia9290 = Profile{
		Vendor: "Nokia", Model: "9290 Communicator",
		OS:      SymbianOS,
		CPUName: "32-bit ARM9 RISC", CPUMHz: 52,
		RAMBytes: 16 << 20, ROMBytes: 8 << 20,
		ScreenW: 640, ScreenH: 200, BatterymAh: 1300,
	}
	PalmI705 = Profile{
		Vendor: "Palm", Model: "i705",
		OS:      PalmOS41,
		CPUName: "33 MHz Motorola Dragonball VZ", CPUMHz: 33,
		RAMBytes: 8 << 20, ROMBytes: 4 << 20,
		ScreenW: 160, ScreenH: 160, BatterymAh: 900,
	}
	SonyCliePEGNR70V = Profile{
		Vendor: "SONY", Model: "Clie PEG-NR70V",
		OS:      PalmOS41,
		CPUName: "66 MHz Motorola Dragonball Super VZ", CPUMHz: 66,
		RAMBytes: 16 << 20, ROMBytes: 8 << 20,
		ScreenW: 320, ScreenH: 480, BatterymAh: 1200,
	}
	ToshibaE740 = Profile{
		Vendor: "Toshiba", Model: "E740",
		OS:      PocketPC2002,
		CPUName: "400 MHz Intel PXA250", CPUMHz: 400,
		RAMBytes: 64 << 20, ROMBytes: 32 << 20,
		ScreenW: 240, ScreenH: 320, BatterymAh: 1000,
	}
)

// Profiles returns the Table 2 rows in the paper's order. The slice is
// freshly allocated.
func Profiles() []Profile {
	return []Profile{CompaqIPAQH3870, Nokia9290, PalmI705, SonyCliePEGNR70V, ToshibaE740}
}

// Name returns "Vendor Model".
func (p Profile) Name() string { return p.Vendor + " " + p.Model }
