// Package dram models the DRAM device array itself: geometry
// (banks × rows × columns), per-row weak-cell populations and the charge
// disturbance process behind rowhammer bit flips.
//
// The device is addressed in DRAM coordinates (bank, row, column); the
// physical-address side of the world lives in internal/mapping and
// internal/memctrl. The weak-cell population is a deterministic function of
// the device seed, so simulations are reproducible: a given (seed, bank,
// row) always owns the same weak cells with the same flip thresholds.
//
// Disturbance model. Activating a row disturbs its two physical
// neighbours. Following the published characterization literature (Kim et
// al., ISCA'14), a victim cell flips when the accumulated disturbance
// within one refresh window crosses the cell's threshold. Double-sided
// hammering (both neighbours of the victim activated alternately) is
// several times more effective than single-sided; the model grants a
// synergy bonus when both neighbours are hammered in the same burst.
package dram

import (
	"fmt"
	"sort"
)

// Geometry describes one simulated DRAM device (all banks of the machine
// flattened; channel/DIMM/rank are folded into the bank index, as in the
// paper).
type Geometry struct {
	// Banks is the total number of banks across channels/DIMMs/ranks.
	Banks int
	// RowsPerBank is the number of rows in each bank.
	RowsPerBank uint64
	// RowBytes is the row size in bytes (number of column positions).
	RowBytes uint64
}

// Validate checks the geometry for consistency.
func (g Geometry) Validate() error {
	if g.Banks <= 0 || g.Banks&(g.Banks-1) != 0 {
		return fmt.Errorf("dram: bank count %d is not a positive power of two", g.Banks)
	}
	if g.RowsPerBank == 0 || g.RowsPerBank&(g.RowsPerBank-1) != 0 {
		return fmt.Errorf("dram: rows per bank %d is not a positive power of two", g.RowsPerBank)
	}
	if g.RowBytes == 0 || g.RowBytes&(g.RowBytes-1) != 0 {
		return fmt.Errorf("dram: row size %d is not a positive power of two", g.RowBytes)
	}
	return nil
}

// VulnProfile parameterizes how rowhammer-susceptible the device is.
// The paper's Table III shows vastly different flip yields across machines
// (No.2 DDR3 flips readily; No.5 barely flips), so the profile is
// per-machine configuration.
type VulnProfile struct {
	// WeakRowFrac is the fraction of rows containing at least one weak
	// cell.
	WeakRowFrac float64
	// MaxWeakPerRow bounds the number of weak cells in a weak row.
	MaxWeakPerRow int
	// ThresholdMin and ThresholdMax bound the per-cell disturbance
	// threshold (in weighted activation counts within one refresh
	// window; see Device.HammerBurst).
	ThresholdMin, ThresholdMax uint64
	// UltraWeakFrac is the fraction of weak cells that are "ultra
	// weak": flippable even by single-sided hammering within one
	// refresh window. Real DDR3 devices exhibit a small such
	// population; blind (timing-free) analyses depend on it.
	UltraWeakFrac float64
	// UltraMin and UltraMax bound ultra-weak cell thresholds.
	UltraMin, UltraMax uint64
	// TRRProb models Target Row Refresh, the in-DRAM mitigation DDR4
	// modules ship: the probability per refresh window that the
	// sampler catches the hammered aggressors and refreshes their
	// neighbourhood, suppressing that window's flips. 0 disables TRR
	// (DDR3). The sampling decision is deterministic in (device seed,
	// bank, aggressor rows, window index).
	TRRProb float64
	// TRRCapacity is how many distinct aggressor rows the sampler can
	// track per window (default 2 when TRRProb > 0). Hammering more
	// aggressors than the sampler tracks dilutes the catch probability
	// — the TRRespass many-sided observation.
	TRRCapacity int
}

// Validate checks the profile.
func (v VulnProfile) Validate() error {
	if v.WeakRowFrac < 0 || v.WeakRowFrac > 1 {
		return fmt.Errorf("dram: WeakRowFrac %v outside [0,1]", v.WeakRowFrac)
	}
	if v.WeakRowFrac > 0 && v.MaxWeakPerRow <= 0 {
		return fmt.Errorf("dram: MaxWeakPerRow must be positive when rows can be weak")
	}
	if v.ThresholdMin == 0 || v.ThresholdMax < v.ThresholdMin {
		return fmt.Errorf("dram: invalid threshold range [%d, %d]", v.ThresholdMin, v.ThresholdMax)
	}
	if v.UltraWeakFrac < 0 || v.UltraWeakFrac > 1 {
		return fmt.Errorf("dram: UltraWeakFrac %v outside [0,1]", v.UltraWeakFrac)
	}
	if v.UltraWeakFrac > 0 && (v.UltraMin == 0 || v.UltraMax < v.UltraMin) {
		return fmt.Errorf("dram: invalid ultra-weak threshold range [%d, %d]", v.UltraMin, v.UltraMax)
	}
	if v.TRRProb < 0 || v.TRRProb > 1 {
		return fmt.Errorf("dram: TRRProb %v outside [0,1]", v.TRRProb)
	}
	if v.TRRCapacity < 0 {
		return fmt.Errorf("dram: negative TRRCapacity")
	}
	return nil
}

// trrCapacity returns the effective sampler capacity.
func (v VulnProfile) trrCapacity() int {
	if v.TRRCapacity == 0 {
		return 2
	}
	return v.TRRCapacity
}

// Invulnerable is a profile with no weak cells at all.
var Invulnerable = VulnProfile{WeakRowFrac: 0, MaxWeakPerRow: 1, ThresholdMin: 1, ThresholdMax: 1}

// WeakCell is one rowhammer-susceptible cell.
type WeakCell struct {
	// Bit is the flat bit index of the cell within its row
	// (0 … RowBytes*8-1).
	Bit uint64
	// Threshold is the weighted disturbance count within one refresh
	// window at which the cell flips.
	Threshold uint64
}

// Flip records one induced bit flip.
type Flip struct {
	Bank uint64
	Row  uint64
	Bit  uint64
}

// String renders the flip location.
func (f Flip) String() string {
	return fmt.Sprintf("flip(bank %d, row %d, bit %d)", f.Bank, f.Row, f.Bit)
}

// Device is a simulated DRAM device.
type Device struct {
	geom Geometry
	vuln VulnProfile
	seed uint64
}

// NewDevice constructs a device. The seed fully determines the weak-cell
// population.
func NewDevice(geom Geometry, vuln VulnProfile, seed uint64) (*Device, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if err := vuln.Validate(); err != nil {
		return nil, err
	}
	return &Device{geom: geom, vuln: vuln, seed: seed}, nil
}

// Geometry returns the device geometry.
func (d *Device) Geometry() Geometry { return d.geom }

// splitmix64 is the SplitMix64 mixing function; it turns structured inputs
// into well-distributed 64-bit values deterministically.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rowHash derives the deterministic randomness stream for one row.
func (d *Device) rowHash(bank, row uint64) uint64 {
	return splitmix64(d.seed ^ splitmix64(bank<<40^row))
}

// WeakCells returns the weak cells of a row, sorted by bit index. The
// result is deterministic in (seed, bank, row). Rows out of range return
// nil.
func (d *Device) WeakCells(bank, row uint64) []WeakCell {
	if bank >= uint64(d.geom.Banks) || row >= d.geom.RowsPerBank {
		return nil
	}
	if d.vuln.WeakRowFrac <= 0 {
		return nil
	}
	h := d.rowHash(bank, row)
	// Decide weakness with 32 bits of h.
	u := float64(h&0xffffffff) / float64(1<<32)
	if u >= d.vuln.WeakRowFrac {
		return nil
	}
	n := int(h>>32)%d.vuln.MaxWeakPerRow + 1
	cells := make([]WeakCell, 0, n)
	span := d.vuln.ThresholdMax - d.vuln.ThresholdMin + 1
	rowBits := d.geom.RowBytes * 8
	for i := 0; i < n; i++ {
		hc := splitmix64(h ^ uint64(i)*0xa0761d6478bd642f)
		threshold := d.vuln.ThresholdMin + (hc>>17)%span
		if u := float64((hc>>8)&0xffff) / float64(1<<16); u < d.vuln.UltraWeakFrac {
			uspan := d.vuln.UltraMax - d.vuln.UltraMin + 1
			threshold = d.vuln.UltraMin + (hc>>23)%uspan
		}
		cells = append(cells, WeakCell{
			Bit:       hc % rowBits,
			Threshold: threshold,
		})
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].Bit < cells[j].Bit })
	return cells
}

// Disturbance weights. A victim adjacent to a single hammered aggressor
// accumulates one unit per aggressor activation; a victim sandwiched
// between two alternately hammered aggressors additionally accumulates
// SynergyWeight units per activation pair, reflecting the empirically much
// higher effectiveness of double-sided rowhammer.
const (
	adjacentWeight = 1
	// SynergyWeight is the extra per-activation-pair disturbance a
	// sandwiched victim receives. Exported for documentation/tests.
	SynergyWeight = 4
)

// HammerBurst simulates alternately activating rows r1 and r2 of the given
// bank actsPerWindow times each within a single refresh window, repeated
// for the given number of windows. It returns the set of bit flips induced
// in neighbouring victim rows (each flipped cell reported once).
//
// actsPerWindow is the number of activations *per aggressor row* within
// one 64 ms refresh window; the caller (internal/memctrl) derives it from
// its timing model.
func (d *Device) HammerBurst(bank, r1, r2 uint64, actsPerWindow uint64, windows int) []Flip {
	if r2 == r1 {
		return d.HammerGroup(bank, []uint64{r1}, actsPerWindow, windows)
	}
	return d.HammerGroup(bank, []uint64{r1, r2}, actsPerWindow, windows)
}

// HammerGroup simulates alternately activating a set of aggressor rows of
// one bank actsPerWindow times each per refresh window. Victims adjacent
// to two aggressors (sandwiched) receive the double-sided synergy bonus.
// With more aggressors than the TRR sampler tracks, the catch probability
// is diluted by capacity/len(rows) — the many-sided (TRRespass-style)
// escape.
func (d *Device) HammerGroup(bank uint64, rows []uint64, actsPerWindow uint64, windows int) []Flip {
	if bank >= uint64(d.geom.Banks) || windows <= 0 || actsPerWindow == 0 || len(rows) == 0 {
		return nil
	}
	uniq := map[uint64]bool{}
	for _, r := range rows {
		if r >= d.geom.RowsPerBank {
			return nil
		}
		uniq[r] = true
	}
	aggressors := make([]uint64, 0, len(uniq))
	for r := range uniq {
		aggressors = append(aggressors, r)
	}
	sort.Slice(aggressors, func(i, j int) bool { return aggressors[i] < aggressors[j] })

	// Target Row Refresh: the sampler may catch the group in any given
	// window; with more aggressors than it tracks, the per-window catch
	// probability dilutes. Deterministic in (seed, bank, rows, window).
	if d.vuln.TRRProb > 0 {
		catch := d.vuln.TRRProb
		if n := len(aggressors); n > d.vuln.trrCapacity() {
			catch = catch * float64(d.vuln.trrCapacity()) / float64(n)
		}
		var key uint64
		for _, r := range aggressors {
			key = splitmix64(key ^ r)
		}
		base := splitmix64(d.seed ^ 0xffe1_dead ^ splitmix64(bank<<44^key))
		escaped := 0
		for w := 0; w < windows; w++ {
			u := float64(splitmix64(base^uint64(w))&0xffffffff) / float64(1<<32)
			if u >= catch {
				escaped++
			}
		}
		if escaped == 0 {
			return nil
		}
		windows = escaped
	}

	// Collect victims: neighbours of any aggressor, with sandwich
	// synergy for victims exactly between two aggressors.
	victims := map[uint64]uint64{} // victim row -> weighted disturbance per window
	for _, a := range aggressors {
		if a >= 1 {
			victims[a-1] += adjacentWeight * actsPerWindow
		}
		if a+1 < d.geom.RowsPerBank {
			victims[a+1] += adjacentWeight * actsPerWindow
		}
	}
	for i := 0; i+1 < len(aggressors); i++ {
		if aggressors[i+1]-aggressors[i] == 2 {
			victims[aggressors[i]+1] += SynergyWeight * actsPerWindow
		}
	}
	var flips []Flip
	for v, disturb := range victims {
		if uniq[v] {
			// An aggressor cannot be its own victim; its cells are
			// rewritten by the access stream.
			continue
		}
		for _, c := range d.WeakCells(bank, v) {
			if disturb >= c.Threshold {
				flips = append(flips, Flip{Bank: bank, Row: v, Bit: c.Bit})
			}
		}
	}
	sort.Slice(flips, func(i, j int) bool {
		if flips[i].Row != flips[j].Row {
			return flips[i].Row < flips[j].Row
		}
		return flips[i].Bit < flips[j].Bit
	})
	return flips
}
