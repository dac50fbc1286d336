// Noise sweep: how much timing noise DRAMDig tolerates. The golden
// corpus pins results at each setting's own noise, where every decision
// rule tried so far recovers every machine, so it cannot tell a robust
// rule from a fragile one. The sweep scales the noise instead: at level
// s it multiplies four parameters of each setting's timing model by s —
// the per-access jitter sigma, the access-outlier probability, the
// whole-measurement-outlier probability and the drift amplitude — and
// scores every run as a success, an error (no mapping) or a wrong
// mapping (a mapping that is not equivalent to ground truth, the failure
// a user cannot see).

package eval

import (
	"fmt"
	"io"
	"slices"

	"dramdig/internal/core"
	"dramdig/internal/machine"
	"dramdig/internal/memctrl"
)

// NoiseScales are the sweep's noise levels.
var NoiseScales = []float64{1, 1.5, 2, 3, 4, 6}

// NoiseRow is one setting's outcome at one noise level.
type NoiseRow struct {
	Scale float64
	No    int
	// Runs splits into Successes, Errors and Wrong.
	Runs, Successes, Errors, Wrong int
}

// noiseSeeds returns the machine and tool seeds of run i on setting no.
// They are fixed: a robustness floor is only meaningful on the same
// machines before and after a change.
func noiseSeeds(no, i int) (machineSeed, toolSeed int64) {
	return 5000 + 1000*int64(no) + int64(i), 7919*int64(i) + 1
}

// ScaleNoise returns def with its timing noise multiplied by s: the
// setting's own tweak runs first, then jitter sigma, both outlier
// probabilities (clamped at 1) and drift amplitude are scaled.
func ScaleNoise(def machine.Definition, s float64) machine.Definition {
	own := def.ParamsTweak
	def.ParamsTweak = func(p *memctrl.Params) {
		if own != nil {
			own(p)
		}
		p.JitterSigmaNs *= s
		p.OutlierProb = min(1, p.OutlierProb*s)
		p.MeasOutlierProb = min(1, p.MeasOutlierProb*s)
		p.DriftAmpNs *= s
	}
	return def
}

// NoiseSweep runs DRAMDig with its default configuration n times on each
// of the nine settings at every scale. Its seeds are fixed (opts.Seed
// does not move them), so a smaller n runs a prefix of a larger sweep.
// A cancelled context breaks the sweep early; the caller checks the
// context before trusting the rows.
func NoiseSweep(opts Options, scales []float64, n int) []NoiseRow {
	var rows []NoiseRow
	for _, s := range scales {
		for no := 1; no <= 9; no++ {
			row := NoiseRow{Scale: s, No: no}
			def, err := machine.ByNo(no)
			if err != nil {
				continue
			}
			def = ScaleNoise(def, s)
			for i := 0; i < n && opts.ctx().Err() == nil; i++ {
				mseed, tseed := noiseSeeds(no, i)
				row.Runs++
				switch ok, err := noiseRun(opts, def, mseed, tseed); {
				case err != nil:
					row.Errors++
				case ok:
					row.Successes++
				default:
					row.Wrong++
				}
			}
			rows = append(rows, row)
			opts.logf("noise x%g No.%d: %d/%d ok, %d errors, %d wrong",
				s, no, row.Successes, row.Runs, row.Errors, row.Wrong)
		}
	}
	return rows
}

// noiseRun runs DRAMDig once and reports whether its mapping matches
// ground truth.
func noiseRun(opts Options, def machine.Definition, machineSeed, toolSeed int64) (bool, error) {
	m, err := machine.New(def, machineSeed)
	if err != nil {
		return false, err
	}
	tool, err := core.New(m, core.Config{Seed: toolSeed})
	if err != nil {
		return false, err
	}
	res, err := tool.RunContext(opts.ctx())
	if err != nil {
		return false, err
	}
	return res.Mapping.EquivalentTo(m.Truth()), nil
}

// noiseTotals sums the sweep's rows per noise level.
func noiseTotals(rows []NoiseRow) map[float64]NoiseRow {
	totals := map[float64]NoiseRow{}
	for _, r := range rows {
		t := totals[r.Scale]
		t.Scale = r.Scale
		t.Runs += r.Runs
		t.Successes += r.Successes
		t.Errors += r.Errors
		t.Wrong += r.Wrong
		totals[r.Scale] = t
	}
	return totals
}

// RenderNoise writes the sweep as one row per setting and one column per
// noise level; each cell reads successes/runs, with errors and wrong
// mappings noted when there are any.
func RenderNoise(w io.Writer, rows []NoiseRow) {
	type key struct {
		scale float64
		no    int
	}
	var scales []float64
	cell := map[key]NoiseRow{}
	for _, r := range rows {
		if !slices.Contains(scales, r.Scale) {
			scales = append(scales, r.Scale)
		}
		cell[key{r.Scale, r.No}] = r
	}
	headers := []string{"Setting"}
	for _, s := range scales {
		headers = append(headers, fmt.Sprintf("noise x%g", s))
	}
	var out [][]string
	for no := 1; no <= 9; no++ {
		line := []string{fmt.Sprintf("No.%d", no)}
		for _, s := range scales {
			line = append(line, noiseCell(cell[key{s, no}]))
		}
		out = append(out, line)
	}
	totals := noiseTotals(rows)
	line := []string{"All"}
	for _, s := range scales {
		line = append(line, noiseCell(totals[s]))
	}
	out = append(out, line)
	RenderTable(w, "Robustness: DRAMDig successes under scaled timing noise (jitter, outliers, drift)",
		headers, out)
}

func noiseCell(r NoiseRow) string {
	s := fmt.Sprintf("%d/%d", r.Successes, r.Runs)
	if r.Errors > 0 || r.Wrong > 0 {
		s += fmt.Sprintf(" (%d err, %d wrong)", r.Errors, r.Wrong)
	}
	return s
}
