// Package memctrl simulates an Intel-style integrated memory controller in
// just enough detail to reproduce the timing side channel DRAMDig relies
// on: per-bank row buffers with an open-page policy, distinct latencies for
// row-buffer hits and row-buffer conflicts, and a configurable noise model.
//
// Noise has three components, mirroring what a real rdtsc measurement loop
// experiences:
//
//   - per-access Gaussian jitter (bus/controller scheduling),
//   - per-access heavy-tailed outliers (refresh collisions, interrupts),
//   - per-measurement outliers (a DVFS transition or scheduler preemption
//     skewing one whole timed loop) — the dominant error source on mobile
//     parts, and the mechanism that breaks brute-force tools on the
//     paper's mobile machine settings.
//
// Every simulated access advances a simulated clock by its latency, so the
// tools under evaluation are charged simulated time exactly as a real tool
// is charged wall-clock time — this is what reproduces the paper's
// Figure 2 (time costs).
//
// Two measurement paths are provided. Access performs one faithful
// access (row-buffer state machine plus sampled noise). MeasurePair is the
// closed-form equivalent of the alternating measurement loop every tool in
// the paper runs: it classifies the pair (row conflict vs. buffered),
// derives the distribution of the loop's mean latency, and draws one
// sample from it — statistically equivalent to looping thousands of
// accesses but O(1), which keeps repo-scale experiments tractable.
// TestMeasurePairMatchesLoop cross-validates the two paths.
package memctrl

import (
	"fmt"
	"math"
	"math/rand"

	"dramdig/internal/addr"
	"dramdig/internal/dram"
	"dramdig/internal/mapping"
)

// PagePolicy selects the controller's row-buffer management.
type PagePolicy int

const (
	// OpenPage keeps the accessed row latched in the row buffer (the
	// policy of the paper's client platforms; the timing side channel
	// depends on it).
	OpenPage PagePolicy = iota
	// ClosedPage precharges after every access: every access pays the
	// activation path, the row-buffer timing channel disappears, and
	// one-location rowhammer becomes possible (Gruss et al., the
	// paper's reference [4]).
	ClosedPage
)

// String names the policy.
func (p PagePolicy) String() string {
	if p == ClosedPage {
		return "closed-page"
	}
	return "open-page"
}

// Params is the controller timing and noise model.
type Params struct {
	// Policy is the row-buffer management policy (default OpenPage).
	Policy PagePolicy
	// RowHitNs is the latency of an access served by an open row buffer.
	RowHitNs float64
	// RowConflictNs is the latency when the bank has a different row
	// open (precharge + activate + CAS).
	RowConflictNs float64
	// FlushNs is the per-access overhead of the cache-flush + fence
	// sequence (clflush; mfence) every measurement loop performs.
	FlushNs float64
	// JitterSigmaNs is the standard deviation of per-access Gaussian
	// noise.
	JitterSigmaNs float64
	// OutlierProb is the probability that one access is hit by a
	// refresh collision or short interrupt, adding an exponentially
	// distributed penalty with mean OutlierMeanNs.
	OutlierProb   float64
	OutlierMeanNs float64
	// MeasOutlierProb is the probability that an entire measurement
	// loop is skewed (DVFS transition, preemption), shifting its mean
	// by a uniform draw from [MeasOutlierLoNs, MeasOutlierHiNs].
	MeasOutlierProb float64
	MeasOutlierLoNs float64
	MeasOutlierHiNs float64
	// MeasOverheadNs is the fixed per-measurement setup cost
	// (pagemap translation, fences, loop bookkeeping).
	MeasOverheadNs float64
	// DriftAmpNs and DriftStepSeconds model slow thermal/DVFS latency
	// drift as a step process: every DriftStepSeconds of simulated time
	// the platform settles into a new latency offset drawn uniformly
	// from [-DriftAmpNs, +DriftAmpNs] (deterministically from the
	// controller seed). A tool that calibrates its conflict threshold
	// once and then measures for hours sees the channel walk away from
	// the threshold; a tool that detects drift and re-calibrates is
	// immune. Mobile parts drift hardest.
	DriftAmpNs       float64
	DriftStepSeconds float64
	// RefreshIntervalNs is the refresh window length (typically 64 ms);
	// it converts hammer bursts into per-window activation counts.
	RefreshIntervalNs float64
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.RowHitNs <= 0 || p.RowConflictNs <= p.RowHitNs {
		return fmt.Errorf("memctrl: need 0 < RowHitNs < RowConflictNs (got %v, %v)", p.RowHitNs, p.RowConflictNs)
	}
	if p.FlushNs < 0 || p.JitterSigmaNs < 0 || p.OutlierMeanNs < 0 || p.MeasOverheadNs < 0 {
		return fmt.Errorf("memctrl: negative overhead/noise parameter")
	}
	if p.OutlierProb < 0 || p.OutlierProb > 1 || p.MeasOutlierProb < 0 || p.MeasOutlierProb > 1 {
		return fmt.Errorf("memctrl: outlier probability outside [0,1]")
	}
	if p.MeasOutlierHiNs < p.MeasOutlierLoNs {
		return fmt.Errorf("memctrl: MeasOutlier range inverted")
	}
	if p.RefreshIntervalNs <= 0 {
		return fmt.Errorf("memctrl: RefreshIntervalNs must be positive")
	}
	if p.DriftAmpNs < 0 || (p.DriftAmpNs > 0 && p.DriftStepSeconds <= 0) {
		return fmt.Errorf("memctrl: invalid drift parameters (amp %v, step %v)", p.DriftAmpNs, p.DriftStepSeconds)
	}
	return nil
}

// DesktopParams returns the timing model of a desktop part (stable clocks,
// few whole-measurement outliers).
func DesktopParams() Params {
	return Params{
		RowHitNs:          55,
		RowConflictNs:     92,
		FlushNs:           250,
		JitterSigmaNs:     4,
		OutlierProb:       0.010,
		OutlierMeanNs:     300,
		MeasOutlierProb:   0.012,
		MeasOutlierLoNs:   20,
		MeasOutlierHiNs:   60,
		MeasOverheadNs:    3000,
		DriftAmpNs:        4,
		DriftStepSeconds:  150,
		RefreshIntervalNs: 64e6,
	}
}

// MobileParams returns the timing model of a mobile part: DVFS and power
// management skew whole measurement loops far more often, which is what
// defeats tools lacking robust measurement strategies.
func MobileParams() Params {
	p := DesktopParams()
	p.RowHitNs = 60
	p.RowConflictNs = 100
	p.FlushNs = 260
	p.JitterSigmaNs = 9
	p.OutlierProb = 0.03
	p.OutlierMeanNs = 420
	p.MeasOutlierProb = 0.030
	p.MeasOutlierLoNs = 25
	p.MeasOutlierHiNs = 70
	p.DriftAmpNs = 11
	return p
}

// Stats counts controller activity.
type Stats struct {
	Accesses     uint64
	RowHits      uint64
	Conflicts    uint64
	Measurements uint64
}

// Controller is the simulated memory controller. It owns the ground-truth
// address mapping (how the hardware actually routes physical addresses),
// the per-bank row-buffer state, the simulated clock and the noise RNG.
//
// Controller is not safe for concurrent use; the tools it serves are
// sequential, like their real counterparts.
type Controller struct {
	params  Params
	truth   *mapping.Mapping
	dec     mapping.Decoder // truth, compiled: every access decodes
	device  *dram.Device
	rowBuf  []uint64 // per bank: open row + 1; 0 = closed
	driftID uint64   // drift stream id, fixed per controller
	clockNs float64
	rng     *rand.Rand
	stats   Stats
}

// New constructs a controller over the given ground-truth mapping and DRAM
// device. The device geometry must agree with the mapping.
func New(params Params, truth *mapping.Mapping, device *dram.Device, seed int64) (*Controller, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := truth.Validate(); err != nil {
		return nil, err
	}
	g := device.Geometry()
	if g.Banks != truth.NumBanks() || g.RowsPerBank != truth.NumRows() || g.RowBytes != truth.NumCols() {
		return nil, fmt.Errorf("memctrl: device geometry %+v does not match mapping (%d banks, %d rows, %d cols)",
			g, truth.NumBanks(), truth.NumRows(), truth.NumCols())
	}
	rng := rand.New(rand.NewSource(seed))
	return &Controller{
		params:  params,
		truth:   truth,
		dec:     truth.Compile(),
		device:  device,
		rowBuf:  make([]uint64, truth.NumBanks()),
		driftID: rng.Uint64(),
		rng:     rng,
	}, nil
}

// Params returns the timing model.
func (c *Controller) Params() Params { return c.params }

// Truth returns the ground-truth mapping. Only evaluation code may consult
// it; the reverse-engineering tools never do.
func (c *Controller) Truth() *mapping.Mapping { return c.truth }

// Device returns the underlying DRAM device.
func (c *Controller) Device() *dram.Device { return c.device }

// ClockNs returns the simulated clock in nanoseconds.
func (c *Controller) ClockNs() float64 { return c.clockNs }

// AdvanceClock charges extra simulated time (tool-side overhead).
func (c *Controller) AdvanceClock(ns float64) { c.clockNs += ns }

// Stats returns access counters.
func (c *Controller) Stats() Stats { return c.stats }

// accessNoise draws the per-access noise term.
func (c *Controller) accessNoise() float64 {
	n := c.rng.NormFloat64() * c.params.JitterSigmaNs
	if c.params.OutlierProb > 0 && c.rng.Float64() < c.params.OutlierProb {
		n += c.rng.ExpFloat64() * c.params.OutlierMeanNs
	}
	return n
}

// splitmix64 mixes x into a well-distributed 64-bit value.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// drift returns the slow latency drift at the current simulated time: a
// per-window uniform level in [-amp, +amp], deterministic in the
// controller seed and the window index.
func (c *Controller) drift() float64 {
	if c.params.DriftAmpNs == 0 {
		return 0
	}
	window := uint64(c.clockNs / (c.params.DriftStepSeconds * 1e9))
	u := float64(splitmix64(c.driftID^window)) / math.MaxUint64
	return c.params.DriftAmpNs * (2*u - 1)
}

// Access performs one uncached access to physical address p, updates the
// row-buffer state, advances the clock and returns the observed latency in
// nanoseconds (including the flush overhead and noise, as a real
// rdtsc-timed flush+load loop observes it).
func (c *Controller) Access(p addr.Phys) float64 {
	d := c.dec.Decode(p)
	var lat float64
	if c.params.Policy == ClosedPage {
		// Every access activates: precharge happened eagerly.
		lat = c.params.RowConflictNs + c.params.FlushNs + c.accessNoise() + c.drift()
		if lat < 1 {
			lat = 1
		}
		c.stats.Conflicts++
		c.stats.Accesses++
		c.clockNs += lat
		return lat
	}
	if c.rowBuf[d.Bank] == d.Row+1 {
		lat = c.params.RowHitNs
		c.stats.RowHits++
	} else {
		lat = c.params.RowConflictNs
		c.stats.Conflicts++
	}
	c.rowBuf[d.Bank] = d.Row + 1
	c.stats.Accesses++
	lat += c.params.FlushNs + c.accessNoise() + c.drift()
	if lat < 1 {
		lat = 1 // physical latency cannot be non-positive
	}
	c.clockNs += lat
	return lat
}

// measureWarmup is the number of warm-up rounds a measurement loop
// discards.
const measureWarmup = 2

// MeasurePair models the alternating flush+load measurement loop over a
// and b for the given number of rounds (one round = one access to each),
// returning the mean per-access latency in nanoseconds with warm-up rounds
// discarded. The simulated clock advances by the duration of the whole
// loop plus the fixed measurement overhead.
func (c *Controller) MeasurePair(a, b addr.Phys, rounds int) float64 {
	if rounds < measureWarmup+2 {
		rounds = measureWarmup + 2
	}
	da, db := c.dec.Decode(a), c.dec.Decode(b)
	// Steady-state per-access service latency of the alternating loop.
	var base float64
	conflict := da.Bank == db.Bank && da.Row != db.Row
	if c.params.Policy == ClosedPage {
		conflict = true // every access pays the activation path
	}
	if conflict {
		base = c.params.RowConflictNs
	} else {
		base = c.params.RowHitNs
	}
	base += c.params.FlushNs

	m := float64(2 * (rounds - measureWarmup)) // accesses contributing to the mean
	mean := base + c.drift()
	// Per-access Gaussian jitter averages down as 1/sqrt(m).
	mean += c.rng.NormFloat64() * c.params.JitterSigmaNs / math.Sqrt(m)
	// Per-access heavy-tail outliers: the loop sees Binomial(m, p)
	// exponential penalties. Their sum contributes a stable bias
	// p*mu plus fluctuation; we use a normal approximation of the
	// compound distribution (fine for m*p ≳ 5, conservative below).
	if p, mu := c.params.OutlierProb, c.params.OutlierMeanNs; p > 0 && mu > 0 {
		lambda := m * p
		bias := p * mu
		sigma := math.Sqrt(lambda*2*mu*mu) / m
		mean += bias + c.rng.NormFloat64()*sigma
	}
	// Whole-measurement outliers (DVFS/preemption) do not average out.
	if c.params.MeasOutlierProb > 0 && c.rng.Float64() < c.params.MeasOutlierProb {
		lo, hi := c.params.MeasOutlierLoNs, c.params.MeasOutlierHiNs
		mean += lo + c.rng.Float64()*(hi-lo)
	}
	if mean < 1 {
		mean = 1
	}

	// Charge the clock for the whole loop and update machine state.
	c.clockNs += float64(2*rounds)*base + c.params.MeasOverheadNs
	c.stats.Accesses += uint64(2 * rounds)
	c.stats.Measurements++
	if conflict {
		c.stats.Conflicts += uint64(2 * rounds)
	} else {
		c.stats.RowHits += uint64(2 * rounds)
	}
	c.rowBuf[da.Bank] = da.Row + 1
	c.rowBuf[db.Bank] = db.Row + 1
	return mean
}

// MeasurePairLoop is the faithful loop implementation of MeasurePair,
// retained for cross-validation tests and demonstrations. It is O(rounds).
func (c *Controller) MeasurePairLoop(a, b addr.Phys, rounds int) float64 {
	if rounds < measureWarmup+2 {
		rounds = measureWarmup + 2
	}
	var total float64
	var counted int
	for r := 0; r < rounds; r++ {
		la := c.Access(a)
		lb := c.Access(b)
		if r >= measureWarmup {
			total += la + lb
			counted += 2
		}
	}
	c.clockNs += c.params.MeasOverheadNs
	c.stats.Measurements++
	mean := total / float64(counted)
	// Whole-measurement outliers apply to the loop path too.
	if c.params.MeasOutlierProb > 0 && c.rng.Float64() < c.params.MeasOutlierProb {
		mean += c.params.MeasOutlierLoNs + c.rng.Float64()*(c.params.MeasOutlierHiNs-c.params.MeasOutlierLoNs)
	}
	return mean
}

// HammerPair alternately activates the rows of physical addresses a and b
// acts times each (the rowhammer inner loop), charges the simulated clock
// for the whole burst, and returns any induced bit flips. When a and b
// fall into different banks (or the same row) the burst is absorbed by the
// row buffers and cannot disturb anything, matching real hardware.
func (c *Controller) HammerPair(a, b addr.Phys, acts uint64) []dram.Flip {
	da, db := c.dec.Decode(a), c.dec.Decode(b)
	per := c.params.RowHitNs + c.params.FlushNs
	sbdr := da.Bank == db.Bank && da.Row != db.Row
	if sbdr || c.params.Policy == ClosedPage {
		per = c.params.RowConflictNs + c.params.FlushNs
	}
	c.clockNs += per * float64(2*acts)
	c.stats.Accesses += 2 * acts
	if sbdr {
		c.stats.Conflicts += 2 * acts
	} else {
		c.stats.RowHits += 2 * acts
	}
	c.rowBuf[da.Bank] = da.Row + 1
	c.rowBuf[db.Bank] = db.Row + 1
	actsPerWindow, windows := c.windowize(acts, 2*per)
	switch {
	case sbdr:
		return c.device.HammerBurst(da.Bank, da.Row, db.Row, actsPerWindow, windows)
	case c.params.Policy == ClosedPage:
		// Even a non-SBDR pair re-activates its rows under closed-page
		// management; each row disturbs its own neighbourhood.
		flips := c.device.HammerBurst(da.Bank, da.Row, da.Row, actsPerWindow, windows)
		if da.Bank != db.Bank || da.Row != db.Row {
			flips = append(flips, c.device.HammerBurst(db.Bank, db.Row, db.Row, actsPerWindow, windows)...)
		}
		return flips
	default:
		return nil
	}
}

// HammerMany alternately activates a set of addresses acts times each
// (the many-sided / TRRespass-style inner loop). Addresses are grouped by
// bank; each bank's rows are hammered as one group, which dilutes a TRR
// sampler with limited tracking capacity.
func (c *Controller) HammerMany(addrs []addr.Phys, acts uint64) []dram.Flip {
	if len(addrs) == 0 {
		return nil
	}
	per := c.params.RowConflictNs + c.params.FlushNs // alternating distinct rows: all activations
	c.clockNs += per * float64(uint64(len(addrs))*acts)
	c.stats.Accesses += uint64(len(addrs)) * acts
	c.stats.Conflicts += uint64(len(addrs)) * acts
	byBank := map[uint64][]uint64{}
	for _, a := range addrs {
		d := c.dec.Decode(a)
		byBank[d.Bank] = append(byBank[d.Bank], d.Row)
		c.rowBuf[d.Bank] = d.Row + 1
	}
	actsPerWindow, windows := c.windowize(acts, float64(len(addrs))*per)
	var flips []dram.Flip
	for bank, rows := range byBank {
		flips = append(flips, c.device.HammerGroup(bank, rows, actsPerWindow, windows)...)
	}
	return flips
}

// HammerOne is the one-location rowhammer primitive (paper reference
// [4]): a single address is accessed acts times. Under open-page
// management the row stays latched and nothing is disturbed; under
// closed-page management every access re-activates the row.
func (c *Controller) HammerOne(a addr.Phys, acts uint64) []dram.Flip {
	d := c.dec.Decode(a)
	per := c.params.RowHitNs + c.params.FlushNs
	if c.params.Policy == ClosedPage {
		per = c.params.RowConflictNs + c.params.FlushNs
	}
	c.clockNs += per * float64(acts)
	c.stats.Accesses += acts
	c.rowBuf[d.Bank] = d.Row + 1
	if c.params.Policy != ClosedPage {
		c.stats.RowHits += acts
		return nil
	}
	c.stats.Conflicts += acts
	actsPerWindow, windows := c.windowize(acts, per)
	return c.device.HammerBurst(d.Bank, d.Row, d.Row, actsPerWindow, windows)
}

// windowize splits a burst into refresh windows given the per-activation
// period.
func (c *Controller) windowize(acts uint64, periodNs float64) (actsPerWindow uint64, windows int) {
	perWindow := uint64(c.params.RefreshIntervalNs / periodNs)
	if perWindow == 0 {
		perWindow = 1
	}
	if acts > perWindow {
		return perWindow, int(acts / perWindow)
	}
	return acts, 1
}

// Reset clears row-buffer state and counters but keeps the clock, RNG and
// device intact.
func (c *Controller) Reset() {
	for i := range c.rowBuf {
		c.rowBuf[i] = 0
	}
	c.stats = Stats{}
}
