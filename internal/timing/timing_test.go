package timing

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dramdig/internal/addr"
	"dramdig/internal/alloc"
	"dramdig/internal/machine"
	"dramdig/internal/metrics"
	"dramdig/internal/sysinfo"
)

func no1(t testing.TB) *machine.Machine {
	t.Helper()
	m, err := machine.NewByNo(1, 21)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMeterValidation(t *testing.T) {
	m := no1(t)
	if _, err := NewMeter(m, 2, 1); err == nil {
		t.Error("tiny rounds accepted")
	}
	if _, err := NewMeter(m, 100, 0); err == nil {
		t.Error("zero repeats accepted")
	}
	if _, err := NewMeter(m, 100, 3); err != nil {
		t.Error(err)
	}
}

func TestCalibrateSeparatesModes(t *testing.T) {
	m := no1(t)
	meter, _ := NewMeter(m, 1200, 3)
	cal, err := meter.Calibrate(rand.New(rand.NewSource(1)), 1024)
	if err != nil {
		t.Fatal(err)
	}
	if cal.Separation() < 25 {
		t.Errorf("separation %.1f ns too small", cal.Separation())
	}
	if cal.Threshold <= cal.LowCenter || cal.Threshold >= cal.HighCenter {
		t.Errorf("threshold %.1f outside (%f, %f)", cal.Threshold, cal.LowCenter, cal.HighCenter)
	}
	// Random pairs land in the same bank ≈ 1/16 of the time.
	if cal.HighFrac < 0.02 || cal.HighFrac > 0.15 {
		t.Errorf("high fraction %.3f implausible for 16 banks", cal.HighFrac)
	}
	if meter.Threshold() != cal.Threshold {
		t.Error("meter did not adopt the threshold")
	}
}

// TestIsConflictAgainstTruth: after calibration, the meter's SBDR
// decisions agree with ground truth on hundreds of random pairs.
func TestIsConflictAgainstTruth(t *testing.T) {
	m := no1(t)
	meter, _ := NewMeter(m, 1200, 3)
	rng := rand.New(rand.NewSource(2))
	if _, err := meter.Calibrate(rng, 1024); err != nil {
		t.Fatal(err)
	}
	wrong := 0
	const n = 600
	for i := 0; i < n; i++ {
		a := m.Pool().RandomAddr(rng, 64)
		b := m.Pool().RandomAddr(rng, 64)
		if a == b {
			continue
		}
		if meter.IsConflict(a, b) != m.Truth().SBDR(a, b) {
			wrong++
		}
	}
	if frac := float64(wrong) / n; frac > 0.02 {
		t.Errorf("%.1f%% misclassification, want < 2%%", frac*100)
	}
}

func TestSampleMedianRobustness(t *testing.T) {
	// Median of odd repeats tolerates one wild sample.
	if got := Median([]float64{10, 1000, 12}); got != 12 {
		t.Errorf("median = %v", got)
	}
	if got := Median([]float64{10, 20}); got != 15 {
		t.Errorf("even median = %v", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

func TestMeasurementCounting(t *testing.T) {
	m := no1(t)
	meter, _ := NewMeter(m, 600, 3)
	a := slices.Collect(m.Pool().All())[0]
	meter.Sample(a, a+128)
	if meter.Measurements() != 3 {
		t.Errorf("measurements = %d, want 3", meter.Measurements())
	}
	meter.SampleN(a, a+128, 5)
	if meter.Measurements() != 8 {
		t.Errorf("measurements = %d, want 8", meter.Measurements())
	}
	// Every sample clears a threshold of 1, so the vote ends after two.
	meter.SetThreshold(1)
	meter.IsConflict(a, a+128)
	if meter.Measurements() != 10 {
		t.Errorf("measurements = %d, want 10", meter.Measurements())
	}
}

// scriptTarget serves MeasurePair from a fixed sample stream.
type scriptTarget struct {
	samples []float64
	next    int
}

func (s *scriptTarget) SysInfo() sysinfo.Info { return sysinfo.Info{} }
func (s *scriptTarget) Pool() *alloc.Pool     { return nil }
func (s *scriptTarget) ClockNs() float64      { return 0 }
func (s *scriptTarget) AdvanceClock(float64)  {}
func (s *scriptTarget) MeasurePair(a, b addr.Phys, rounds int) float64 {
	v := s.samples[s.next]
	s.next++
	return v
}

// TestIsConflictCurtailedVote checks the curtailed vote against the
// median rule it replaced, on scripted sample streams: for every repeat
// count the decision is median(first n samples) ≥ threshold, and an odd
// count consumes exactly the samples up to the first majority. Values
// equal to the threshold count as conflicts, as they do for the median.
func TestIsConflictCurtailedVote(t *testing.T) {
	const thresh = 100
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 3, 4, 5, 7} {
		for trial := 0; trial < 2000; trial++ {
			stream := make([]float64, n)
			for i := range stream {
				switch rng.Intn(4) {
				case 0:
					stream[i] = thresh
				default:
					stream[i] = thresh + rng.NormFloat64()*20
				}
			}
			target := &scriptTarget{samples: stream}
			meter, err := NewMeter(target, 600, n)
			if err != nil {
				t.Fatal(err)
			}
			meter.SetThreshold(thresh)
			got := meter.IsConflict(0, 64)
			if want := Median(stream) >= thresh; got != want {
				t.Fatalf("n=%d %v: vote %v, median rule %v", n, stream, got, want)
			}
			want := n // even counts take every sample
			if n%2 == 1 {
				high, low := 0, 0
				for want = 0; high <= n/2 && low <= n/2; want++ {
					if stream[want] >= thresh {
						high++
					} else {
						low++
					}
				}
			}
			if target.next != want || meter.Measurements() != uint64(want) {
				t.Fatalf("n=%d %v: took %d samples (counted %d), want %d",
					n, stream, target.next, meter.Measurements(), want)
			}
		}
	}
	// With three repeats: two agreeing samples decide, a split takes
	// the third.
	for _, c := range []struct {
		stream []float64
		want   bool
		took   int
	}{
		{[]float64{120, 130, 0}, true, 2},
		{[]float64{80, 70, 0}, false, 2},
		{[]float64{120, 80, 90}, false, 3},
		{[]float64{80, 120, 100}, true, 3},
	} {
		target := &scriptTarget{samples: c.stream}
		meter, _ := NewMeter(target, 600, 3)
		meter.SetThreshold(thresh)
		if got := meter.IsConflict(0, 64); got != c.want || target.next != c.took {
			t.Errorf("%v: conflict %v after %d samples, want %v after %d", c.stream, got, target.next, c.want, c.took)
		}
	}
}

// TestIsConflictUnanimous checks the one-sided vote on scripted sample
// streams: for every repeat count the decision is "each of the first n
// samples reaches the threshold", and the vote takes the samples up to
// and including the first low one (all n when none is low). Values
// equal to the threshold count as high, as they do for IsConflict.
func TestIsConflictUnanimous(t *testing.T) {
	const thresh = 100
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{1, 2, 3, 4, 5, 7} {
		for trial := 0; trial < 2000; trial++ {
			stream := make([]float64, n)
			for i := range stream {
				switch rng.Intn(4) {
				case 0:
					stream[i] = thresh
				default:
					stream[i] = thresh + 5 + rng.NormFloat64()*20
				}
			}
			target := &scriptTarget{samples: stream}
			meter, err := NewMeter(target, 600, n)
			if err != nil {
				t.Fatal(err)
			}
			meter.SetThreshold(thresh)
			got := meter.IsConflictUnanimous(0, 64)
			want, took := true, n
			for i, v := range stream {
				if v < thresh {
					want, took = false, i+1
					break
				}
			}
			if got != want {
				t.Fatalf("n=%d %v: vote %v, want %v", n, stream, got, want)
			}
			if target.next != took || meter.Measurements() != uint64(took) {
				t.Fatalf("n=%d %v: took %d samples (counted %d), want %d",
					n, stream, target.next, meter.Measurements(), took)
			}
		}
	}
	// With three repeats: a low sample ends the vote at once, a
	// conflict takes three highs.
	for _, c := range []struct {
		stream []float64
		want   bool
		took   int
	}{
		{[]float64{80, 130, 130}, false, 1},
		{[]float64{120, 80, 130}, false, 2},
		{[]float64{120, 130, 99}, false, 3},
		{[]float64{120, 100, 130}, true, 3},
	} {
		target := &scriptTarget{samples: c.stream}
		meter, _ := NewMeter(target, 600, 3)
		meter.SetThreshold(thresh)
		if got := meter.IsConflictUnanimous(0, 64); got != c.want || target.next != c.took {
			t.Errorf("%v: conflict %v after %d samples, want %v after %d", c.stream, got, target.next, c.want, c.took)
		}
	}
}

// TestInstrumentBatches: a meter holds its samples back from the
// instrument until flushEvery of them have gathered or its owner calls
// Flush; detaching the instrument flushes too.
func TestInstrumentBatches(t *testing.T) {
	r := metrics.NewRegistry()
	in := &Instrument{
		Samples:   r.Counter("samples_total", "", nil),
		LatencyNs: r.Histogram("latency_ns", "", metrics.ExpBuckets(25, 1.5, 12), nil),
	}
	m := no1(t)
	meter, _ := NewMeter(m, 600, 1)
	meter.SetInstrument(in)
	a := slices.Collect(m.Pool().All())[0]
	meter.SampleN(a, a+128, flushEvery-1)
	if got := in.Samples.Value(); got != 0 {
		t.Fatalf("instrument saw %d samples before a flush", got)
	}
	meter.SampleN(a, a+128, 2)
	if got := in.Samples.Value(); got != flushEvery || in.LatencyNs.Count() != flushEvery {
		t.Fatalf("instrument saw %d samples (histogram %d) at the batch bound, want %d",
			got, in.LatencyNs.Count(), flushEvery)
	}
	meter.Flush()
	if got := in.Samples.Value(); got != meter.Measurements() || in.LatencyNs.Count() != got {
		t.Fatalf("after Flush: instrument %d (histogram %d), meter %d",
			got, in.LatencyNs.Count(), meter.Measurements())
	}
	meter.SampleN(a, a+128, 5)
	meter.SetInstrument(nil)
	meter.SampleN(a, a+128, 5)
	if got := in.Samples.Value(); got != meter.Measurements()-5 {
		t.Fatalf("after detaching: instrument %d, want %d", got, meter.Measurements()-5)
	}
}

// TestDriftOKDetectsShift: sentinels flag a manually shifted threshold.
func TestDriftOKDetectsShift(t *testing.T) {
	m := no1(t)
	meter, _ := NewMeter(m, 1200, 3)
	cal, err := meter.Calibrate(rand.New(rand.NewSource(3)), 1024)
	if err != nil {
		t.Fatal(err)
	}
	if !meter.DriftOK() {
		t.Fatal("fresh calibration reported drifted")
	}
	// Simulate a stale threshold: move it below the low mode — now the
	// low sentinel classifies as conflict.
	meter.SetThreshold(cal.LowCenter - 20)
	if meter.DriftOK() {
		t.Error("grossly wrong threshold not detected")
	}
	// And above the high mode.
	meter.SetThreshold(cal.HighCenter + 20)
	if meter.DriftOK() {
		t.Error("threshold above the conflict mode not detected")
	}
}

// TestDriftOKOneSided checks the drift check on scripted sample streams:
// the low sentinel's samples come first, and it reads as drifted only
// on three highs, its first low sample ending that test; the high
// sentinel, measured only after the low one holds, keeps the median of
// three.
func TestDriftOKOneSided(t *testing.T) {
	const thresh = 100
	for _, c := range []struct {
		name   string
		stream []float64
		ok     bool
		took   int
	}{
		{"low sentinel low at once", []float64{80, 120, 130, 110}, true, 4},
		{"low sentinel low on its third", []float64{120, 130, 90, 120, 130, 110}, true, 6},
		{"low sentinel on three highs", []float64{120, 130, 100}, false, 3},
		{"high sentinel median high", []float64{80, 90, 120, 110}, true, 4},
		{"high sentinel median low", []float64{80, 120, 90, 95}, false, 4},
		{"high sentinel one high", []float64{80, 130, 90, 80}, false, 4},
	} {
		target := &scriptTarget{samples: c.stream}
		meter, _ := NewMeter(target, 600, 3)
		meter.SetThreshold(thresh)
		meter.sentinelLow = [2]addr.Phys{0, 64}
		meter.sentinelHigh = [2]addr.Phys{128, 192}
		meter.haveSentinels = true
		if got := meter.DriftOK(); got != c.ok || target.next != c.took {
			t.Errorf("%s %v: ok %v after %d samples, want %v after %d", c.name, c.stream, got, target.next, c.ok, c.took)
		}
	}
}

func TestDriftOKWithoutSentinels(t *testing.T) {
	m := no1(t)
	meter, _ := NewMeter(m, 600, 1)
	if !meter.DriftOK() {
		t.Error("meter without sentinels must report OK")
	}
}

func TestTwoMeansDegenerate(t *testing.T) {
	if _, _, _, ok := twoMeans([]float64{1, 2}); ok {
		t.Error("too few samples accepted")
	}
	same := make([]float64, 50)
	for i := range same {
		same[i] = 7
	}
	if _, _, _, ok := twoMeans(same); ok {
		t.Error("constant samples accepted")
	}
}

func TestTwoMeansBimodal(t *testing.T) {
	var vals []float64
	for i := 0; i < 900; i++ {
		vals = append(vals, 300+float64(i%10)/10)
	}
	for i := 0; i < 100; i++ {
		vals = append(vals, 340+float64(i%10)/10)
	}
	lo, hi, frac, ok := twoMeans(vals)
	if !ok {
		t.Fatal("bimodal data rejected")
	}
	if math.Abs(lo-300.45) > 1 || math.Abs(hi-340.45) > 1 {
		t.Errorf("centers %.1f / %.1f", lo, hi)
	}
	if math.Abs(frac-0.1) > 0.02 {
		t.Errorf("high fraction %.3f, want 0.1", frac)
	}
}

func TestCalibrateTooFewPages(t *testing.T) {
	// A machine pool always has pages; exercise the sample floor path
	// instead: tiny sample counts are raised to a workable minimum.
	m := no1(t)
	meter, _ := NewMeter(m, 1200, 1)
	if _, err := meter.Calibrate(rand.New(rand.NewSource(4)), 1); err != nil {
		t.Fatalf("minimum sample floor failed: %v", err)
	}
}
