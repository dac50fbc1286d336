// Package machine assembles complete simulated test machines: a
// ground-truth DRAM address mapping, a memory controller with a
// microarchitecture-appropriate timing model, a DRAM device with a
// vulnerability profile, a simulated physical-page allocation and the
// decode-dimms/dmidecode system information a tool may read.
//
// The package registers the paper's nine machine settings (Table II) as
// ground truth; reverse-engineering tools run against these machines and
// are scored by comparing their output to the registered mapping.
package machine

import (
	"fmt"

	"dramdig/internal/addr"
	"dramdig/internal/alloc"
	"dramdig/internal/dram"
	"dramdig/internal/mapping"
	"dramdig/internal/memctrl"
	"dramdig/internal/specs"
	"dramdig/internal/sysinfo"
)

// Definition declares a machine setting: everything needed to build the
// simulated hardware, in the paper's own notation.
type Definition struct {
	// No is the paper's setting number (1–9); 0 for custom machines.
	No int
	// Name is a short identifier ("No.1").
	Name string
	// Microarch and CPU identify the processor ("Sandy Bridge",
	// "i5-2400").
	Microarch string
	CPU       string
	// Mobile selects the noisier mobile timing model.
	Mobile bool
	// Standard is DDR3 or DDR4.
	Standard specs.Standard
	// MemBytes is the physical memory size.
	MemBytes uint64
	// Config is the population quadruple (channels, DIMMs/channel,
	// ranks/DIMM, banks/rank).
	Config sysinfo.DIMMConfig
	// ChipPart names the DRAM chip in specs.Catalog.
	ChipPart string
	// BankFuncs, RowBits, ColBits give the ground-truth mapping in the
	// paper's notation.
	BankFuncs string
	RowBits   string
	ColBits   string
	// Vuln is the rowhammer vulnerability profile.
	Vuln dram.VulnProfile
	// ParamsTweak optionally adjusts the timing model after the
	// desktop/mobile base is chosen.
	ParamsTweak func(*memctrl.Params)
	// Notes records deviations from the paper (e.g. the No.5 row-range
	// correction).
	Notes string
}

// Machine is a fully assembled simulated machine.
type Machine struct {
	def   Definition
	seed  int64
	info  sysinfo.Info
	truth *mapping.Mapping
	ctrl  *memctrl.Controller
	pool  *alloc.Pool
}

// Surface builds the tool-visible surface of a definition — the
// decode-dimms/dmidecode system information and the simulated
// physical-page allocation — without the simulator behind it. The pool
// layout is deterministic in the (definition, seed) pair, so it is
// identical to the one New builds for that pair; trace replay uses this
// to reconstruct a recorded machine's address space offline.
func Surface(def Definition, seed int64) (sysinfo.Info, *alloc.Pool, error) {
	chip, err := specs.Lookup(def.ChipPart)
	if err != nil {
		return sysinfo.Info{}, nil, fmt.Errorf("machine %s: %w", def.Name, err)
	}
	info := sysinfo.Info{
		Microarch: def.Microarch,
		CPU:       def.CPU,
		Standard:  def.Standard,
		MemBytes:  def.MemBytes,
		Config:    def.Config,
		Chip:      chip,
		ECC:       false,
	}
	if err := info.Validate(); err != nil {
		return sysinfo.Info{}, nil, fmt.Errorf("machine %s: %w", def.Name, err)
	}
	pool, err := alloc.NewPool(alloc.DefaultConfig(def.MemBytes), seed*1048583+int64(def.No))
	if err != nil {
		return sysinfo.Info{}, nil, fmt.Errorf("machine %s: %w", def.Name, err)
	}
	return info, pool, nil
}

// New builds the machine. The seed determines the allocation layout, the
// noise stream and the weak-cell population; a given (definition, seed)
// pair is fully reproducible.
func New(def Definition, seed int64) (*Machine, error) {
	info, pool, err := Surface(def, seed)
	if err != nil {
		return nil, err
	}
	funcs, err := mapping.ParseFuncs(def.BankFuncs)
	if err != nil {
		return nil, fmt.Errorf("machine %s: bank funcs: %w", def.Name, err)
	}
	rowBits, err := mapping.ParseBitRanges(def.RowBits)
	if err != nil {
		return nil, fmt.Errorf("machine %s: row bits: %w", def.Name, err)
	}
	colBits, err := mapping.ParseBitRanges(def.ColBits)
	if err != nil {
		return nil, fmt.Errorf("machine %s: col bits: %w", def.Name, err)
	}
	truth, err := mapping.New(info.PhysBits(), funcs, rowBits, colBits)
	if err != nil {
		return nil, fmt.Errorf("machine %s: ground truth: %w", def.Name, err)
	}
	if got, want := 1<<len(truth.BankFuncs), info.TotalBanks(); got != want {
		return nil, fmt.Errorf("machine %s: %d bank functions imply %d banks, config says %d",
			def.Name, len(truth.BankFuncs), got, want)
	}
	geom := dram.Geometry{
		Banks:       truth.NumBanks(),
		RowsPerBank: truth.NumRows(),
		RowBytes:    truth.NumCols(),
	}
	device, err := dram.NewDevice(geom, def.Vuln, uint64(seed)*0x9e3779b97f4a7c15+uint64(def.No))
	if err != nil {
		return nil, fmt.Errorf("machine %s: %w", def.Name, err)
	}
	params := memctrl.DesktopParams()
	if def.Mobile {
		params = memctrl.MobileParams()
	}
	if def.ParamsTweak != nil {
		def.ParamsTweak(&params)
	}
	ctrl, err := memctrl.New(params, truth, device, seed^int64(def.No)<<32)
	if err != nil {
		return nil, fmt.Errorf("machine %s: %w", def.Name, err)
	}
	return &Machine{def: def, seed: seed, info: info, truth: truth, ctrl: ctrl, pool: pool}, nil
}

// Def returns the definition.
func (m *Machine) Def() Definition { return m.def }

// Seed returns the machine seed New was called with; trace headers carry
// it so replay can rebuild the identical allocation layout.
func (m *Machine) Seed() int64 { return m.seed }

// Name returns the short name ("No.1").
func (m *Machine) Name() string { return m.def.Name }

// SysInfo returns the system information a tool may legitimately read
// (decode-dimms / dmidecode equivalents).
func (m *Machine) SysInfo() sysinfo.Info { return m.info }

// Pool returns the simulated physical-page allocation.
func (m *Machine) Pool() *alloc.Pool { return m.pool }

// Truth returns the ground-truth mapping. Evaluation code only — the
// reverse-engineering tools never call this.
func (m *Machine) Truth() *mapping.Mapping { return m.truth }

// Controller exposes the memory controller (for substrate-level tests).
func (m *Machine) Controller() *memctrl.Controller { return m.ctrl }

// MeasurePair is the tool-facing timing primitive: the mean per-access
// latency of an alternating flush+load loop over a and b.
func (m *Machine) MeasurePair(a, b addr.Phys, rounds int) float64 {
	return m.ctrl.MeasurePair(a, b, rounds)
}

// HammerPair is the tool-facing rowhammer primitive.
func (m *Machine) HammerPair(a, b addr.Phys, acts uint64) []dram.Flip {
	return m.ctrl.HammerPair(a, b, acts)
}

// HammerOne is the one-location rowhammer primitive; it only disturbs
// anything on closed-page machines.
func (m *Machine) HammerOne(a addr.Phys, acts uint64) []dram.Flip {
	return m.ctrl.HammerOne(a, acts)
}

// HammerMany is the many-sided (TRRespass-style) rowhammer primitive.
func (m *Machine) HammerMany(addrs []addr.Phys, acts uint64) []dram.Flip {
	return m.ctrl.HammerMany(addrs, acts)
}

// ClockNs returns the simulated clock.
func (m *Machine) ClockNs() float64 { return m.ctrl.ClockNs() }

// AdvanceClock charges tool-side overhead to the simulated clock.
func (m *Machine) AdvanceClock(ns float64) { m.ctrl.AdvanceClock(ns) }

// Stats returns controller counters.
func (m *Machine) Stats() memctrl.Stats { return m.ctrl.Stats() }

// vulnerability profiles calibrated so the rowhammer experiments
// reproduce the relative flip yields of the paper's Table III: No.2 flips
// readily, No.1 moderately, No.5 barely. Settings absent from Table III
// get profiles by DRAM generation (DDR3 moderate, DDR4 lower).
var (
	vulnModerate = dram.VulnProfile{WeakRowFrac: 0.18, MaxWeakPerRow: 4, ThresholdMin: 200_000, ThresholdMax: 2_000_000,
		UltraWeakFrac: 0.020, UltraMin: 30_000, UltraMax: 85_000}
	vulnHigh = dram.VulnProfile{WeakRowFrac: 0.30, MaxWeakPerRow: 6, ThresholdMin: 180_000, ThresholdMax: 1_800_000,
		UltraWeakFrac: 0.030, UltraMin: 30_000, UltraMax: 85_000}
	vulnLow = dram.VulnProfile{WeakRowFrac: 0.010, MaxWeakPerRow: 2, ThresholdMin: 250_000, ThresholdMax: 2_000_000,
		UltraWeakFrac: 0.005, UltraMin: 60_000, UltraMax: 85_000}
	// DDR4 parts pair a moderate weak-cell population with a TRR
	// sampler; single-window bursts slip past it roughly half the time,
	// which keeps yields well below the DDR3 parts.
	vulnDDR4 = dram.VulnProfile{WeakRowFrac: 0.12, MaxWeakPerRow: 3, ThresholdMin: 260_000, ThresholdMax: 2_200_000,
		UltraWeakFrac: 0.008, UltraMin: 60_000, UltraMax: 85_000, TRRProb: 0.5}
)

// settings is the paper's Table II, transcribed as ground truth.
var settings = []Definition{
	{
		No: 1, Name: "No.1", Microarch: "Sandy Bridge", CPU: "i5-2400",
		Standard: specs.DDR3, MemBytes: 8 << 30,
		Config:    sysinfo.DIMMConfig{Channels: 2, DIMMsPerChan: 1, RanksPerDIMM: 1, BanksPerRank: 8},
		ChipPart:  "MT41K512M8",
		BankFuncs: "(6), (14, 17), (15, 18), (16, 19)",
		RowBits:   "17~32", ColBits: "0~5, 7~13",
		Vuln: vulnModerate,
	},
	{
		No: 2, Name: "No.2", Microarch: "Ivy Bridge", CPU: "i5-3230M", Mobile: true,
		Standard: specs.DDR3, MemBytes: 8 << 30,
		Config:    sysinfo.DIMMConfig{Channels: 2, DIMMsPerChan: 1, RanksPerDIMM: 2, BanksPerRank: 8},
		ChipPart:  "MT41K256M8",
		BankFuncs: "(14, 18), (15, 19), (16, 20), (17, 21), (7, 8, 9, 12, 13, 18, 19)",
		RowBits:   "18~32", ColBits: "0~6, 8~13",
		Vuln: vulnHigh,
		ParamsTweak: func(p *memctrl.Params) {
			// The paper's No.2 is noisy but DRAMA still converges
			// there (slowly); keep whole-measurement outliers and
			// drift at the milder end of the mobile band.
			p.MeasOutlierProb = 0.020
			p.DriftAmpNs = 9
		},
	},
	{
		No: 3, Name: "No.3", Microarch: "Ivy Bridge", CPU: "i5-3230M", Mobile: true,
		Standard: specs.DDR3, MemBytes: 4 << 30,
		Config:    sysinfo.DIMMConfig{Channels: 1, DIMMsPerChan: 1, RanksPerDIMM: 2, BanksPerRank: 8},
		ChipPart:  "MT41K256M8",
		BankFuncs: "(13, 17), (14, 18), (15, 19), (16, 20)",
		RowBits:   "17~31", ColBits: "0~12",
		Vuln: vulnModerate,
		ParamsTweak: func(p *memctrl.Params) {
			// Paper: DRAMA ran ~2 h on No.3 without producing a
			// result. The mobile part's DVFS drifts the timing
			// channel past a stale threshold; tools that do not
			// re-calibrate cannot converge.
			p.MeasOutlierProb = 0.038
			p.DriftAmpNs = 80
			p.DriftStepSeconds = 60
		},
	},
	{
		No: 4, Name: "No.4", Microarch: "Haswell", CPU: "i5-4210U", Mobile: true,
		Standard: specs.DDR3, MemBytes: 4 << 30,
		Config:    sysinfo.DIMMConfig{Channels: 1, DIMMsPerChan: 1, RanksPerDIMM: 1, BanksPerRank: 8},
		ChipPart:  "MT41K512M8",
		BankFuncs: "(13, 16), (14, 17), (15, 18)",
		RowBits:   "16~31", ColBits: "0~12",
		Vuln: vulnModerate,
		ParamsTweak: func(p *memctrl.Params) {
			p.MeasOutlierProb = 0.018
		},
	},
	{
		No: 5, Name: "No.5", Microarch: "Haswell", CPU: "i7-4790",
		Standard: specs.DDR3, MemBytes: 16 << 30,
		Config:    sysinfo.DIMMConfig{Channels: 2, DIMMsPerChan: 1, RanksPerDIMM: 2, BanksPerRank: 8},
		ChipPart:  "MT41K512M8",
		BankFuncs: "(14, 18), (15, 19), (16, 20), (17, 21), (7, 8, 9, 12, 13, 18, 19)",
		RowBits:   "18~33", ColBits: "0~6, 8~13",
		Vuln:  vulnLow,
		Notes: "paper's Table II prints row bits 18~32, which leaves the 34-bit (16 GiB) space one bit short; 18~33 is the consistent reading",
	},
	{
		No: 6, Name: "No.6", Microarch: "Skylake", CPU: "i5-6600",
		Standard: specs.DDR4, MemBytes: 16 << 30,
		Config:    sysinfo.DIMMConfig{Channels: 2, DIMMsPerChan: 1, RanksPerDIMM: 2, BanksPerRank: 16},
		ChipPart:  "MT40A512M8",
		BankFuncs: "(7, 14), (15, 19), (16, 20), (17, 21), (18, 22), (8, 9, 12, 13, 18, 19)",
		RowBits:   "19~33", ColBits: "0~7, 9~13",
		Vuln: vulnDDR4,
		ParamsTweak: func(p *memctrl.Params) {
			// Dual-rank DDR4 desktop: slight drift; DRAMA converges
			// but needs several collection retries.
			p.DriftAmpNs = 5
		},
	},
	{
		No: 7, Name: "No.7", Microarch: "Skylake", CPU: "i5-6200U", Mobile: true,
		Standard: specs.DDR4, MemBytes: 4 << 30,
		Config:    sysinfo.DIMMConfig{Channels: 1, DIMMsPerChan: 1, RanksPerDIMM: 1, BanksPerRank: 8},
		ChipPart:  "MT40A512M16",
		BankFuncs: "(6, 13), (14, 16), (15, 17)",
		RowBits:   "16~31", ColBits: "0~12",
		Vuln: vulnDDR4,
		ParamsTweak: func(p *memctrl.Params) {
			// Like No.3: the second setting where DRAMA times out.
			p.MeasOutlierProb = 0.038
			p.DriftAmpNs = 80
			p.DriftStepSeconds = 60
		},
	},
	{
		No: 8, Name: "No.8", Microarch: "Coffee Lake", CPU: "i5-9400",
		Standard: specs.DDR4, MemBytes: 8 << 30,
		Config:    sysinfo.DIMMConfig{Channels: 1, DIMMsPerChan: 1, RanksPerDIMM: 1, BanksPerRank: 16},
		ChipPart:  "MT40A1G8",
		BankFuncs: "(6, 13), (14, 17), (15, 18), (16, 19)",
		RowBits:   "17~32", ColBits: "0~12",
		Vuln: vulnDDR4,
	},
	{
		No: 9, Name: "No.9", Microarch: "Coffee Lake", CPU: "i5-9400",
		Standard: specs.DDR4, MemBytes: 16 << 30,
		Config:    sysinfo.DIMMConfig{Channels: 2, DIMMsPerChan: 1, RanksPerDIMM: 2, BanksPerRank: 16},
		ChipPart:  "MT40A512M8",
		BankFuncs: "(7, 14), (15, 19), (16, 20), (17, 21), (18, 22), (8, 9, 12, 13, 18, 19)",
		RowBits:   "19~33", ColBits: "0~7, 9~13",
		Vuln: vulnDDR4,
		ParamsTweak: func(p *memctrl.Params) {
			p.DriftAmpNs = 5
		},
	},
}

// Settings returns the paper's nine machine definitions.
func Settings() []Definition {
	return append([]Definition(nil), settings...)
}

// ByNo returns the definition of setting n (1–9).
func ByNo(n int) (Definition, error) {
	for _, d := range settings {
		if d.No == n {
			return d, nil
		}
	}
	return Definition{}, fmt.Errorf("machine: no setting No.%d (valid: 1-9)", n)
}

// NewByNo builds setting n with the given seed.
func NewByNo(n int, seed int64) (*Machine, error) {
	def, err := ByNo(n)
	if err != nil {
		return nil, err
	}
	return New(def, seed)
}
