// Package core implements DRAMDig, the paper's knowledge-assisted
// reverse-engineering tool for DRAM address mappings.
//
// DRAMDig proceeds in three steps (paper §III, Figure 1):
//
//  1. Coarse-grained row & column bit detection: single-bit and two-bit
//     flip experiments classify most physical address bits; bits that
//     also feed bank functions stay hidden ("covered").
//  2. Bank address function resolving: knowledge-guided physical-address
//     selection (Algorithm 1), timing-based partition of the selected
//     addresses into same-bank piles (Algorithm 2), and XOR-mask
//     enumeration with redundancy elimination and pile numbering
//     (Algorithm 3).
//  3. Fine-grained row & column bit detection: using the resolved
//     functions plus chip-specification bit counts, classify the shared
//     bits (row/column bits that also feed bank functions).
//
// The tool consumes only the timing.Target surface: system information
// (decode-dimms/dmidecode), its own allocated pages, and the latency
// primitive. It never sees the simulator's ground truth.
package core

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"time"

	"dramdig/internal/addr"
	"dramdig/internal/mapping"
	"dramdig/internal/obs"
	"dramdig/internal/timing"
)

// Config tunes DRAMDig. Zero values select defaults. The pipeline's
// other parameters are constants beside the code that reads them.
type Config struct {
	// PartitionRounds is the rounds used inside the Algorithm 2 inner
	// loop, where millions of measurements happen (default 600).
	PartitionRounds int
	// Delta is Algorithm 2's pile-size tolerance δ (default 0.2).
	Delta float64
	// PaperStop runs Algorithm 2 to the paper's stop rule alone, each
	// round scanning all that remains. By default partitioning first
	// builds truncated piles and stops once the bank functions resolved
	// from the piles so far predict measured conflicts (see
	// partition.go).
	PaperStop bool
	// MinPoolAddrs is the minimum number of selected addresses for
	// Algorithm 2; the selection widens with extra row-bit variation
	// until it reaches this size (default 4096).
	MinPoolAddrs int
	// DisableDriftGuard turns off sentinel-based drift detection and
	// re-calibration (ablation: without it DRAMDig degrades to
	// DRAMA-like behaviour on drifting machines).
	DisableDriftGuard bool
	// Seed drives the tool's own randomness (base-address choice,
	// partition order). The recovered mapping must not depend on it —
	// that is the paper's determinism property.
	Seed int64
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
	// OnStep, when set, is called after each completed pipeline step
	// ("calibrate", "coarse", "partition", "resolve", "fine") with its
	// cost — the engine's WithProgress hook.
	OnStep func(step string, stats StepStats)
	// Instrument, when set, is attached to every meter the run creates:
	// hot-path sample counting and latency distribution (see
	// timing.Instrument). Nil costs one branch per raw measurement.
	Instrument *timing.Instrument
}

func (c *Config) setDefaults() {
	if c.PartitionRounds == 0 {
		c.PartitionRounds = 600
	}
	if c.Delta == 0 {
		c.Delta = 0.2
	}
	if c.MinPoolAddrs == 0 {
		c.MinPoolAddrs = 4096
	}
}

// The detection meter's settings: calibration, the drift sentinels and
// the bit votes of Steps 1 and 3 alternate meterRounds accesses per raw
// measurement and read the median of meterRepeats of them.
const (
	meterRounds  = 1200
	meterRepeats = 3
)

// guardGapNs throttles routine sentinel drift checks to at most one per
// simulated second. Post-operation verification checks are never
// throttled.
const guardGapNs = 1e9

// calibrationPairs is the number of random pairs a calibration
// measures on a target with the given bank count. Random pairs conflict
// about 1/#banks of the time, so it expects at least 12 conflicting
// pairs on any setting.
func calibrationPairs(banks int) int {
	return max(12*banks, 384)
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.Delta < 0 || c.Delta >= 1 {
		return fmt.Errorf("core: Delta %v outside [0,1)", c.Delta)
	}
	return nil
}

// StepStats records the cost of one DRAMDig step.
type StepStats struct {
	// SimSeconds is simulated time spent in the step.
	SimSeconds float64
	// Measurements is the number of raw latency measurements.
	Measurements uint64
}

// Result is the outcome of a DRAMDig run.
type Result struct {
	// Mapping is the recovered DRAM address mapping (validated,
	// bijective).
	Mapping *mapping.Mapping
	// Calibration describes the fitted timing channel.
	Calibration timing.CalibrationResult
	// CoarseRowBits and CoarseColBits are the Step 1 results (coarse
	// column bits include the cache-line offset bits 0–5).
	CoarseRowBits, CoarseColBits []uint
	// AssumedRowBits are high bits unreachable within the allocation,
	// classified as row bits by spec knowledge.
	AssumedRowBits []uint
	// BankCandidateBits is the Step 1 leftover set B.
	BankCandidateBits []uint
	// SelectedAddrs is the Algorithm 1 pool size (paper §IV-B tracks
	// this per setting).
	SelectedAddrs int
	// Piles is the number of same-bank piles Algorithm 2 produced.
	Piles int
	// SharedRowBits and SharedColBits are Step 3's fine-grained
	// findings.
	SharedRowBits, SharedColBits []uint
	// TotalSimSeconds is the simulated time of the whole run; the
	// paper's Figure 2 plots this quantity.
	TotalSimSeconds float64
	// WallSeconds is the host time the simulation took (reported for
	// transparency; not a paper metric).
	WallSeconds float64
	// Measurements is the total number of raw latency measurements.
	Measurements uint64
	// Steps breaks cost down by step name: "calibrate", "coarse",
	// "partition", "resolve", "fine".
	Steps map[string]StepStats
}

// Tool is a configured DRAMDig instance.
type Tool struct {
	cfg         Config
	target      timing.Target
	ctx         context.Context // run context; every measurement loop observes it
	meter       *timing.Meter   // detection measurements (meterRounds, meterRepeats)
	pmeter      *timing.Meter   // partition measurements (PartitionRounds, 3 repeats)
	rng         *rand.Rand
	logf        func(string, ...any)
	calSamples  int
	lastGuardNs float64
	recalibs    int
}

// interrupted returns the run context's error, if any; the pipeline's
// measurement loops poll it so cancellation propagates promptly.
func (t *Tool) interrupted() error {
	if t.ctx == nil {
		return nil
	}
	return t.ctx.Err()
}

// driftGuard probes the sentinel pairs and re-calibrates when the timing
// channel has drifted past the threshold. Routine calls (force=false) are
// throttled; post-operation verification (force=true) always probes.
// It reports whether a re-calibration occurred.
func (t *Tool) driftGuard(force bool) (bool, error) {
	if err := t.interrupted(); err != nil {
		return false, err
	}
	if t.cfg.DisableDriftGuard || t.meter == nil {
		return false, nil
	}
	if !force && t.target.ClockNs()-t.lastGuardNs < guardGapNs {
		return false, nil
	}
	t.lastGuardNs = t.target.ClockNs()
	if t.meter.DriftOK() {
		return false, nil
	}
	cal, err := t.meter.CalibrateContext(t.ctx, t.rng, t.calSamples)
	if err != nil {
		return false, fmt.Errorf("re-calibration: %w", err)
	}
	t.pmeter.SetThreshold(cal.Threshold)
	t.recalibs++
	t.logf("drift detected: re-calibrated to %s", cal)
	return true, nil
}

// measurements sums raw measurements across both meters.
func (t *Tool) measurements() uint64 {
	var n uint64
	if t.meter != nil {
		n += t.meter.Measurements()
	}
	if t.pmeter != nil {
		n += t.pmeter.Measurements()
	}
	return n
}

// flushInstrument folds both meters' batched samples into the run's
// instrument (see timing.Instrument).
func (t *Tool) flushInstrument() {
	if t.meter != nil {
		t.meter.Flush()
	}
	if t.pmeter != nil {
		t.pmeter.Flush()
	}
}

// New creates a DRAMDig instance for a target.
func New(target timing.Target, cfg Config) (*Tool, error) {
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Tool{
		cfg:    cfg,
		target: target,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		logf:   logf,
	}, nil
}

// Run executes the full DRAMDig pipeline without cancellation; it is
// RunContext with a background context.
func (t *Tool) Run() (*Result, error) {
	return t.RunContext(context.Background())
}

// RunContext executes the full DRAMDig pipeline under ctx. Every
// measurement loop observes the context, so cancellation or a deadline
// returns promptly with an error satisfying errors.Is against the
// context's error.
func (t *Tool) RunContext(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	t.ctx = ctx
	// Every return path, a failed phase or cancellation included, leaves
	// the instrument agreeing with the meters.
	defer t.flushInstrument()
	start := time.Now()
	startClock := t.target.ClockNs()
	res := &Result{Steps: make(map[string]StepStats)}
	info := t.target.SysInfo()
	if err := info.Validate(); err != nil {
		return nil, fmt.Errorf("dramdig: system information: %w", err)
	}
	banks := info.TotalBanks()
	if banks < 2 {
		return nil, fmt.Errorf("dramdig: nonsensical bank count %d", banks)
	}
	t.logf("target: %s %s, %s, %d banks, %d GiB",
		info.CPU, info.Microarch, info.Standard, banks, info.MemBytes>>30)

	// Step 0: calibrate the timing channel.
	meter, err := timing.NewMeter(t.target, meterRounds, meterRepeats)
	if err != nil {
		return nil, err
	}
	meter.SetInstrument(t.cfg.Instrument)
	t.meter = meter
	pmeter, err := timing.NewMeter(t.target, t.cfg.PartitionRounds, 3)
	if err != nil {
		return nil, err
	}
	pmeter.SetInstrument(t.cfg.Instrument)
	t.pmeter = pmeter
	stepClock, stepMeas := t.target.ClockNs(), t.measurements()
	sp := t.startPhase("calibrate")
	t.calSamples = calibrationPairs(banks)
	cal, err := meter.CalibrateContext(ctx, t.rng, t.calSamples)
	if err != nil {
		failPhase(sp, err)
		return nil, fmt.Errorf("dramdig: %w", err)
	}
	res.Calibration = cal
	pmeter.SetThreshold(cal.Threshold)
	t.logf("calibrated: %s", cal)
	t.recordStep(res, sp, "calibrate", stepClock, stepMeas)

	// Step 1: coarse row & column detection.
	stepClock, stepMeas = t.target.ClockNs(), t.measurements()
	sp = t.startPhase("coarse")
	coarse, err := t.coarseDetect(info)
	if err != nil {
		failPhase(sp, err)
		return nil, fmt.Errorf("dramdig step 1: %w", err)
	}
	res.CoarseRowBits = coarse.rowBits
	res.CoarseColBits = coarse.colBits
	res.AssumedRowBits = coarse.assumedRow
	res.BankCandidateBits = coarse.bankBits
	t.recordStep(res, sp, "coarse", stepClock, stepMeas)
	t.logf("coarse: rows %s (assumed high: %s), cols %s, bank candidates %s",
		addr.FormatBitRanges(coarse.rowBits), addr.FormatBitRanges(coarse.assumedRow),
		addr.FormatBitRanges(coarse.colBits), addr.FormatBitRanges(coarse.bankBits))

	// Step 2a: Algorithm 1 — physical address selection.
	stepClock, stepMeas = t.target.ClockNs(), t.measurements()
	sp = t.startPhase("partition")
	sel, err := t.selectAddresses(coarse)
	if err != nil {
		failPhase(sp, err)
		return nil, fmt.Errorf("dramdig step 2 (selection): %w", err)
	}
	res.SelectedAddrs = len(sel.pool)
	t.logf("selected %d addresses (range bits %d..%d, extra row bits %s)",
		len(sel.pool), sel.bMin, sel.bMax, addr.FormatBitRanges(sel.extraBits))

	// Step 2b: Algorithm 2 — partition into piles.
	piles, verified, err := t.partition(sel.pool, coarse.bankBits, banks)
	if err != nil {
		failPhase(sp, err)
		return nil, fmt.Errorf("dramdig step 2 (partition): %w", err)
	}
	res.Piles = len(piles)
	t.recordStep(res, sp, "partition", stepClock, stepMeas)
	t.logf("partitioned into %d piles (want %d banks)", len(piles), banks)

	// Step 2c: Algorithm 3 — bank address function detection.
	stepClock, stepMeas = t.target.ClockNs(), t.measurements()
	sp = t.startPhase("resolve")
	funcs, err := t.resolve(piles, verified, coarse.bankBits, banks)
	if err != nil {
		failPhase(sp, err)
		return nil, fmt.Errorf("dramdig step 2 (resolve): %w", err)
	}
	t.recordStep(res, sp, "resolve", stepClock, stepMeas)
	t.logf("bank functions: %s", formatFuncs(funcs))

	// Step 3: fine-grained shared-bit classification.
	stepClock, stepMeas = t.target.ClockNs(), t.measurements()
	sp = t.startPhase("fine")
	fine, err := t.fineDetect(info, coarse, funcs)
	if err != nil {
		failPhase(sp, err)
		return nil, fmt.Errorf("dramdig step 3: %w", err)
	}
	res.SharedRowBits = fine.sharedRow
	res.SharedColBits = fine.sharedCol
	t.recordStep(res, sp, "fine", stepClock, stepMeas)
	t.logf("shared row bits %s, shared col bits %s",
		addr.FormatBitRanges(fine.sharedRow), addr.FormatBitRanges(fine.sharedCol))

	// Assemble and validate the final mapping. Validation doubles as a
	// consistency proof: row+col+bank bit counts must exactly tile the
	// physical address space and the map must be bijective.
	rowBits := append(append(append([]uint(nil), coarse.rowBits...), coarse.assumedRow...), fine.sharedRow...)
	colBits := append(append([]uint(nil), coarse.colBits...), fine.sharedCol...)
	m, err := mapping.New(info.PhysBits(), funcs, rowBits, colBits)
	if err != nil {
		return nil, fmt.Errorf("dramdig: recovered mapping inconsistent: %w", err)
	}
	res.Mapping = m.Canonicalize()
	res.TotalSimSeconds = (t.target.ClockNs() - startClock) / 1e9
	res.Measurements = t.measurements()
	res.WallSeconds = time.Since(start).Seconds()
	t.logf("done: %s (simulated %.1f s, %d measurements)",
		res.Mapping, res.TotalSimSeconds, res.Measurements)
	return res, nil
}

func (t *Tool) recordStep(res *Result, sp *obs.Span, name string, clock0 float64, meas0 uint64) {
	t.flushInstrument()
	stats := StepStats{
		SimSeconds:   (t.target.ClockNs() - clock0) / 1e9,
		Measurements: t.measurements() - meas0,
	}
	res.Steps[name] = stats
	sp.SetAttrInt("measurements", int64(stats.Measurements))
	sp.SetAttr("sim_s", fmt.Sprintf("%.3f", stats.SimSeconds))
	sp.End()
	if t.cfg.OnStep != nil {
		t.cfg.OnStep(name, stats)
	}
}

// startPhase opens the tracing span for one pipeline step. Spans are
// minted at phase granularity — five per run, never per measurement —
// so the hot path stays untouched; without a tracer in the run context
// the span is nil and every call on it is a no-op.
func (t *Tool) startPhase(name string) *obs.Span {
	_, sp := obs.Start(t.ctx, "engine."+name)
	return sp
}

// failPhase closes a step's span on an error return.
func failPhase(sp *obs.Span, err error) {
	sp.SetError(err)
	sp.End()
}

func formatFuncs(funcs []uint64) string {
	m := &mapping.Mapping{BankFuncs: funcs}
	return m.FuncString()
}

func log2int(n int) int {
	return bits.Len(uint(n)) - 1
}
