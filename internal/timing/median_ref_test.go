package timing

import (
	"math/rand"
	"sort"
	"testing"

	"dramdig/internal/addr"
	"dramdig/internal/alloc"
	"dramdig/internal/sysinfo"
)

// medianRef is the copy-and-sort median SampleN used to take. It is kept
// as the reference.
func medianRef(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// scripted is a Target whose MeasurePair returns preset latencies in
// turn.
type scripted struct{ vals []float64 }

func (s *scripted) SysInfo() sysinfo.Info { return sysinfo.Info{} }
func (s *scripted) Pool() *alloc.Pool     { return nil }
func (s *scripted) ClockNs() float64      { return 0 }
func (s *scripted) AdvanceClock(float64)  {}
func (s *scripted) MeasurePair(a, b addr.Phys, rounds int) float64 {
	v := s.vals[0]
	s.vals = s.vals[1:]
	return v
}

func TestSampleNMedianMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 9, 12} {
		for trial := 0; trial < 200; trial++ {
			vals := make([]float64, n)
			for i := range vals {
				// Few distinct levels, so ties are common.
				vals[i] = 150 + float64(rng.Intn(4))*20 + float64(rng.Intn(2))*0.5
			}
			want := medianRef(vals)
			target := &scripted{vals: append([]float64(nil), vals...)}
			meter, err := NewMeter(target, 100, 3)
			if err != nil {
				t.Fatal(err)
			}
			if got := meter.SampleN(0, 64, n); got != want {
				t.Fatalf("n=%d %v: SampleN median %v, reference %v", n, vals, got, want)
			}
			if got := Median(vals); got != want {
				t.Fatalf("n=%d %v: Median %v, reference %v", n, vals, got, want)
			}
			if meter.Measurements() != uint64(n) || len(target.vals) != 0 {
				t.Fatalf("n=%d: %d measurements, %d values left", n, meter.Measurements(), len(target.vals))
			}
		}
	}
}

func TestSampleNDoesNotAllocate(t *testing.T) {
	target := &scripted{}
	meter, err := NewMeter(target, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	script := []float64{180, 150, 180}
	allocs := testing.AllocsPerRun(100, func() {
		target.vals = script
		meter.SampleN(0, 64, 3)
	})
	if allocs != 0 {
		t.Errorf("SampleN allocates %v times per call", allocs)
	}
}
