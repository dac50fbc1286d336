// Package timing provides the measurement harness every
// reverse-engineering tool in this repository builds on: the Target
// interface a simulated machine implements, a Meter that turns raw
// latency samples into robust same-bank-different-row (SBDR) decisions,
// and threshold calibration from the bimodal latency distribution.
package timing

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"dramdig/internal/addr"
	"dramdig/internal/alloc"
	"dramdig/internal/metrics"
	"dramdig/internal/sysinfo"
)

// Target is the surface a tool may use: system knowledge, its own
// allocated memory, and the timing primitive. Ground truth is NOT part of
// this interface.
type Target interface {
	// SysInfo returns decode-dimms/dmidecode-level system information.
	SysInfo() sysinfo.Info
	// Pool returns the tool's allocated physical pages.
	Pool() *alloc.Pool
	// MeasurePair returns the mean per-access latency (ns) of an
	// alternating access loop over a and b with the given rounds.
	MeasurePair(a, b addr.Phys, rounds int) float64
	// ClockNs returns the simulated clock (ns); tools read it to report
	// their own cost.
	ClockNs() float64
	// AdvanceClock charges tool-side overhead to the simulated clock.
	AdvanceClock(ns float64)
}

// CacheLineBits is log2 of the cache line size. Addresses are always
// measured at cache-line granularity: two addresses within one line are
// the same memory transaction, so bits below this are column/offset bits
// by construction — standard domain knowledge used by every tool.
const CacheLineBits = 6

// Instrument is hot-path measurement instrumentation shared by a run's
// meters: a raw-sample throughput counter and a histogram of the measured
// latencies themselves (ns) — the latter renders the bimodal SBDR
// distribution directly on /v1/metrics. Each meter batches its samples
// and folds them in with Meter.Flush, so the shared atomics are touched
// once per flushEvery samples rather than four times per sample. A nil
// *Instrument is a no-op, so the uninstrumented hot path pays exactly
// one predictable branch per raw measurement.
type Instrument struct {
	// Samples counts raw MeasurePair calls.
	Samples *metrics.Counter
	// LatencyNs is the distribution of measured per-access latencies.
	LatencyNs *metrics.Histogram
}

// flushEvery bounds how many samples a meter holds back from its
// instrument, so a long phase still shows progress on a scrape.
const flushEvery = 4096

// Meter wraps a Target with a measurement policy: rounds per measurement,
// median-of-repeats robustness, a calibrated conflict threshold, and
// sentinel pairs that detect when platform drift has invalidated the
// threshold.
type Meter struct {
	target   Target
	rounds   int
	repeats  int
	thresh   float64
	measures uint64
	inst     *Instrument
	batch    *metrics.HistogramBatch // inst's samples not yet flushed

	haveSentinels bool
	sentinelLow   [2]addr.Phys // a pair known not to conflict
	sentinelHigh  [2]addr.Phys // a pair known to conflict
}

// NewMeter builds a meter. rounds is the number of alternating access
// rounds per raw measurement; repeats is how many raw measurements a
// Sample aggregates by median (odd values recommended).
func NewMeter(target Target, rounds, repeats int) (*Meter, error) {
	if rounds < 4 {
		return nil, fmt.Errorf("timing: rounds %d too small", rounds)
	}
	if repeats < 1 {
		return nil, fmt.Errorf("timing: repeats %d must be >= 1", repeats)
	}
	return &Meter{target: target, rounds: rounds, repeats: repeats}, nil
}

// Measurements returns the number of raw measurements performed.
func (m *Meter) Measurements() uint64 { return m.measures }

// Threshold returns the calibrated conflict threshold (0 until Calibrate).
func (m *Meter) Threshold() float64 { return m.thresh }

// SetThreshold overrides the threshold (tests, ablations).
func (m *Meter) SetThreshold(t float64) { m.thresh = t }

// SetInstrument attaches hot-path instrumentation (nil detaches it),
// flushing what the meter held for the previous one.
func (m *Meter) SetInstrument(in *Instrument) {
	m.Flush()
	m.inst, m.batch = in, nil
	if in != nil {
		m.batch = in.LatencyNs.NewBatch()
	}
}

// Flush folds the samples the meter has batched into its instrument.
// The meter flushes every flushEvery samples on its own; its owner
// flushes at phase boundaries and before returning, so the instrument
// agrees with Measurements whenever a run reports.
func (m *Meter) Flush() {
	if m.batch == nil || m.batch.Count() == 0 {
		return
	}
	m.inst.Samples.Add(m.batch.Count())
	m.inst.LatencyNs.Merge(m.batch)
}

// Sample measures the pair repeats times and returns the median latency.
func (m *Meter) Sample(a, b addr.Phys) float64 {
	return m.SampleN(a, b, m.repeats)
}

// SampleN measures the pair n times and returns the median latency.
func (m *Meter) SampleN(a, b addr.Phys, n int) float64 {
	if n < 1 {
		n = 1
	}
	// A median takes a few repeats (three for calibration and drift
	// checks); the buffer keeps them off the heap.
	var buf [8]float64
	samples := buf[:0]
	for i := 0; i < n; i++ {
		samples = append(samples, m.measure(a, b))
	}
	return medianInPlace(samples)
}

// measure takes one raw measurement of the pair.
func (m *Meter) measure(a, b addr.Phys) float64 {
	v := m.target.MeasurePair(a, b, m.rounds)
	m.measures++
	if m.batch != nil {
		m.batch.Observe(v)
		if m.batch.Count() >= flushEvery {
			m.Flush()
		}
	}
	return v
}

// IsConflict reports whether the pair exhibits a row-buffer conflict
// (same bank, different row): whether the median of the repeats reaches
// the calibrated threshold. With an odd repeat count that median is a
// majority vote, so the vote is curtailed — sampling stops as soon as
// one side holds a majority, and with three repeats the third sample is
// taken only when the first two disagree. The decision is the median
// rule's on the same samples (a sequential test in Wald's sense). Even
// repeat counts average the middle pair, so they take every sample.
func (m *Meter) IsConflict(a, b addr.Phys) bool {
	if m.repeats%2 == 0 {
		return m.Sample(a, b) >= m.thresh
	}
	majority := m.repeats/2 + 1
	high, low := 0, 0
	for high < majority && low < majority {
		if m.measure(a, b) >= m.thresh {
			high++
		} else {
			low++
		}
	}
	return high == majority
}

// IsConflictUnanimous is the one-sided sequential test for a conflict:
// the pair conflicts only when every one of the meter's repeats samples
// reaches the threshold, and the first low sample ends the vote. It
// suits a scan where most pairs do not conflict and the noise only adds
// latency (whole-measurement outliers), so a false high is the costly
// error: a non-conflicting pair takes one sample instead of the
// majority vote's two, and a stranger passes with probability pʳ
// instead of about 3p² at r = 3. The price is a false low whenever one
// of a conflicting pair's r samples falls below the threshold.
func (m *Meter) IsConflictUnanimous(a, b addr.Phys) bool {
	return m.allHigh(a, b, m.repeats)
}

// allHigh reports whether n samples of the pair all reach the
// threshold; the first that does not ends the test.
func (m *Meter) allHigh(a, b addr.Phys, n int) bool {
	for i := 0; i < n; i++ {
		if m.measure(a, b) < m.thresh {
			return false
		}
	}
	return true
}

// CalibrationResult describes the fitted latency distribution.
type CalibrationResult struct {
	// LowCenter and HighCenter are the two cluster means (ns).
	LowCenter, HighCenter float64
	// Threshold is the decision boundary.
	Threshold float64
	// HighFrac is the fraction of calibration samples in the high
	// cluster; for random pairs it approximates 1/#banks.
	HighFrac float64
	// Samples is the number of calibration pairs measured.
	Samples int
}

// Separation returns the distance between cluster centers.
func (c CalibrationResult) Separation() float64 { return c.HighCenter - c.LowCenter }

// String renders the calibration.
func (c CalibrationResult) String() string {
	return fmt.Sprintf("low %.1f ns, high %.1f ns, threshold %.1f ns (%.1f%% high of %d samples)",
		c.LowCenter, c.HighCenter, c.Threshold, c.HighFrac*100, c.Samples)
}

// Calibrate measures `samples` random address pairs and fits a
// two-cluster (1-D k-means) model to the latency distribution: the low
// cluster is buffered/other-bank accesses, the high cluster is row-buffer
// conflicts. The threshold is placed at the midpoint of the cluster
// centers. Random pairs hit the same bank with probability ≈ 1/#banks, so
// `samples` should be a generous multiple of the bank count.
func (m *Meter) Calibrate(rng *rand.Rand, samples int) (CalibrationResult, error) {
	return m.CalibrateContext(nil, rng, samples)
}

// CalibrateContext is Calibrate observing a context: calibration is a
// long measurement loop, so cancellation is polled inside it and returns
// the context's error. A nil ctx disables the polling.
func (m *Meter) CalibrateContext(ctx context.Context, rng *rand.Rand, samples int) (CalibrationResult, error) {
	pool := m.target.Pool()
	if pool.NumPages() < 2 {
		return CalibrationResult{}, fmt.Errorf("timing: pool too small to calibrate")
	}
	if samples < 32 {
		samples = 32
	}
	type sample struct {
		a, b addr.Phys
		v    float64
	}
	taken := make([]sample, 0, samples)
	vals := make([]float64, 0, samples)
	for i := 0; i < samples; i++ {
		if ctx != nil && i&31 == 0 {
			if err := ctx.Err(); err != nil {
				return CalibrationResult{}, err
			}
		}
		a := pool.RandomAddr(rng, 1<<CacheLineBits)
		b := pool.RandomAddr(rng, 1<<CacheLineBits)
		if a == b {
			continue
		}
		v := m.SampleN(a, b, 3)
		taken = append(taken, sample{a, b, v})
		vals = append(vals, v)
	}
	lo, hi, hiFrac, ok := twoMeans(vals)
	if !ok || hi-lo < 1 {
		return CalibrationResult{}, fmt.Errorf("timing: calibration found no latency separation (lo %.1f, hi %.1f)", lo, hi)
	}
	res := CalibrationResult{
		LowCenter:  lo,
		HighCenter: hi,
		Threshold:  (lo + hi) / 2,
		HighFrac:   hiFrac,
		Samples:    len(vals),
	}
	m.thresh = res.Threshold
	// Remember the pairs closest to the cluster centers as drift
	// sentinels: their classification is known, so a later flip signals
	// that the channel has drifted away from the threshold.
	bestLow, bestHigh := -1, -1
	for i, s := range taken {
		if bestLow < 0 || abs(s.v-lo) < abs(taken[bestLow].v-lo) {
			bestLow = i
		}
		if bestHigh < 0 || abs(s.v-hi) < abs(taken[bestHigh].v-hi) {
			bestHigh = i
		}
	}
	if bestLow >= 0 && bestHigh >= 0 && bestLow != bestHigh {
		m.sentinelLow = [2]addr.Phys{taken[bestLow].a, taken[bestLow].b}
		m.sentinelHigh = [2]addr.Phys{taken[bestHigh].a, taken[bestHigh].b}
		m.haveSentinels = true
	}
	return res, nil
}

// DriftOK re-measures the sentinel pairs and reports whether they still
// classify as expected. A false return means platform drift has moved the
// latency distribution relative to the calibrated threshold and the caller
// should re-calibrate. Meters without sentinels report true.
//
// The low sentinel reads as drifted only when all three of its samples
// reach the threshold, and its first low sample ends that test, as in
// IsConflictUnanimous: whole-measurement outliers only add latency, so
// under a median two of them would call drift and cost a full
// re-calibration. The high sentinel, measured only when the low one
// holds, keeps the median of three.
func (m *Meter) DriftOK() bool {
	if !m.haveSentinels {
		return true
	}
	if m.allHigh(m.sentinelLow[0], m.sentinelLow[1], 3) {
		return false
	}
	return m.SampleN(m.sentinelHigh[0], m.sentinelHigh[1], 3) >= m.thresh
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TwoMeans runs the calibration's 1-D 2-means clustering on an arbitrary
// latency sample, returning cluster centers (lo <= hi) and the
// high-cluster fraction. Trace diagnostics use it to characterize
// recorded and perturbed timing channels with the exact model the Meter
// calibrates with.
func TwoMeans(vals []float64) (lo, hi, hiFrac float64, ok bool) {
	return twoMeans(vals)
}

// twoMeans runs 1-D 2-means clustering, returning cluster centers
// (lo <= hi) and the high-cluster fraction.
func twoMeans(vals []float64) (lo, hi, hiFrac float64, ok bool) {
	if len(vals) < 8 {
		return 0, 0, 0, false
	}
	trimmed := append([]float64(nil), vals...)
	sort.Float64s(trimmed)
	lo, hi = trimmed[0], trimmed[len(trimmed)-1]
	if hi == lo {
		return lo, hi, 0, false
	}
	var nHi int
	for iter := 0; iter < 64; iter++ {
		var sumLo, sumHi float64
		var nLo int
		nHi = 0
		mid := (lo + hi) / 2
		for _, v := range trimmed {
			if v >= mid {
				sumHi += v
				nHi++
			} else {
				sumLo += v
				nLo++
			}
		}
		if nLo == 0 || nHi == 0 {
			return lo, hi, 0, false
		}
		newLo, newHi := sumLo/float64(nLo), sumHi/float64(nHi)
		if newLo == lo && newHi == hi {
			break
		}
		lo, hi = newLo, newHi
	}
	return lo, hi, float64(nHi) / float64(len(trimmed)), true
}

// medianInPlace sorts s and returns its median.
func medianInPlace(s []float64) float64 {
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Median is the exported median helper used by tools for their own sample
// aggregation.
func Median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return medianInPlace(append([]float64(nil), v...))
}
