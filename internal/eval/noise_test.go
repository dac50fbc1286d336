package eval

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dramdig/internal/machine"
	"dramdig/internal/memctrl"
)

// TestNoiseFloors is the robustness oracle: on fixed seeds, N = 32 runs
// of each of the nine settings at 1.5×, 2×, 4× and 6× their timing noise
// must succeed at least as often as the floor. Each floor is the count
// the pipeline reached when the floor was last set minus a binomial
// margin of 2σ, σ = √(n·p·(1−p)) over the level's n = 288 runs at that
// rate p; where every run succeeded, σ is taken at one failure (≈ 1.0):
//
//	×1.5: 288/288 succeeded (σ 1.0), floor 288 − 2 = 286
//	×2:   288/288 succeeded (σ 1.0), floor 288 − 2 = 286
//	×4:   288/288 succeeded (σ 1.0), floor 288 − 2 = 286
//	×6:   273/288 succeeded (σ 3.8), floor 273 − 8 = 265
//
// A change to the decision rules legitimately moves the random streams,
// so the counts are floors, not exact values; the seeds never change.
// No run may return a wrong mapping: a run that cannot resolve the
// mapping must say so.
func TestNoiseFloors(t *testing.T) {
	if testing.Short() {
		t.Skip("1,152 pipeline runs")
	}
	floors := map[float64]int{1.5: 286, 2: 286, 4: 286, 6: 265}
	got := noiseTotals(NoiseSweep(Options{}, []float64{1.5, 2, 4, 6}, 32))
	for scale, floor := range floors {
		g := got[scale]
		if g.Runs != 9*32 {
			t.Errorf("noise x%g: %d runs, want %d", scale, g.Runs, 9*32)
		}
		if g.Successes < floor {
			t.Errorf("noise x%g: %d/%d succeeded, floor %d", scale, g.Successes, g.Runs, floor)
		}
		if g.Wrong != 0 {
			t.Errorf("noise x%g: %d runs returned a wrong mapping", scale, g.Wrong)
		}
		t.Logf("noise x%g: %d/%d succeeded (floor %d), %d wrong mappings", scale, g.Successes, g.Runs, floor, g.Wrong)
	}
}

// generatedNoiseDefs returns the generated oracle's fixed machines: the
// first n definitions machine.GenerateDefinition builds under seeds 1,
// 2, 3 …, skipping seeds whose draw does not fit the address space.
func generatedNoiseDefs(n int) []machine.Definition {
	var defs []machine.Definition
	for seed := int64(1); len(defs) < n; seed++ {
		if def, err := machine.GenerateDefinition(rand.New(rand.NewSource(seed))); err == nil {
			defs = append(defs, def)
		}
	}
	return defs
}

// TestNoiseFloorsGenerated is the noise oracle over generated machines:
// 96 fixed definitions from all three of the generator's families
// (disjoint, channel and wide), each at every level of NoiseScales.
// Run i uses noiseSeeds(0, i). The floors follow TestNoiseFloors' 2σ
// rule over the level's n = 96 runs:
//
//	×1 to ×6: 96/96 succeeded at every level (σ 1.0), floor 96 − 2 = 94
//
// No run may return a wrong mapping.
func TestNoiseFloorsGenerated(t *testing.T) {
	if testing.Short() {
		t.Skip("576 pipeline runs")
	}
	const n, floor = 96, 94
	defs := generatedNoiseDefs(n)
	for _, family := range []string{"gen-disjoint-", "gen-channel-", "gen-wide-"} {
		if !slices.ContainsFunc(defs, func(d machine.Definition) bool { return strings.HasPrefix(d.Name, family) }) {
			t.Fatalf("no %s machine among the oracle's %d definitions", family, n)
		}
	}
	for _, scale := range NoiseScales {
		var g NoiseRow
		for i, def := range defs {
			mseed, tseed := noiseSeeds(0, i)
			switch ok, err := noiseRun(Options{}, ScaleNoise(def, scale), mseed, tseed); {
			case err != nil:
				g.Errors++
			case ok:
				g.Successes++
			default:
				g.Wrong++
				t.Errorf("noise x%g: %s (machine seed %d, tool seed %d) returned a wrong mapping", scale, def.Name, mseed, tseed)
			}
		}
		if g.Successes < floor {
			t.Errorf("noise x%g: %d/%d generated machines succeeded, floor %d", scale, g.Successes, n, floor)
		}
		t.Logf("noise x%g: %d/%d generated machines succeeded (floor %d), %d errors, %d wrong mappings",
			scale, g.Successes, n, floor, g.Errors, g.Wrong)
	}
}

// TestScaleNoiseWrapsOwnTweak: scaling applies on top of the setting's
// own timing tweak, leaves the drift step alone and clamps probabilities
// at 1, so even an extreme level builds a valid machine.
func TestScaleNoiseWrapsOwnTweak(t *testing.T) {
	def, err := machine.ByNo(3)
	if err != nil {
		t.Fatal(err)
	}
	own, scaled := memctrl.MobileParams(), memctrl.MobileParams()
	def.ParamsTweak(&own)
	ScaleNoise(def, 2).ParamsTweak(&scaled)
	if scaled.JitterSigmaNs != 2*own.JitterSigmaNs || scaled.OutlierProb != 2*own.OutlierProb ||
		scaled.MeasOutlierProb != 2*own.MeasOutlierProb || scaled.DriftAmpNs != 2*own.DriftAmpNs {
		t.Errorf("x2 noise of %+v is %+v", own, scaled)
	}
	if scaled.DriftStepSeconds != own.DriftStepSeconds || scaled.RowConflictNs != own.RowConflictNs {
		t.Errorf("x2 noise changed more than the noise: %+v", scaled)
	}
	if _, err := machine.New(ScaleNoise(def, 100), 1); err != nil {
		t.Errorf("x100 noise: %v", err)
	}
}

func TestRenderNoise(t *testing.T) {
	var buf bytes.Buffer
	RenderNoise(&buf, []NoiseRow{
		{Scale: 1, No: 1, Runs: 4, Successes: 4},
		{Scale: 2, No: 1, Runs: 4, Successes: 1, Errors: 2, Wrong: 1},
		{Scale: 2, No: 2, Runs: 4, Successes: 3, Errors: 1},
	})
	for _, want := range []string{"noise x1", "noise x2", "| No.1    | 4/4", "1/4 (2 err, 1 wrong)", "4/8 (3 err, 1 wrong)"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("rendered sweep missing %q:\n%s", want, buf.String())
		}
	}
}
