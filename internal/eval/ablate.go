// Ablation experiments for DRAMDig's design choices: pile tolerance δ,
// partition measurement length, knowledge-guided pool sizing, and the
// sentinel drift guard. Each returns structured rows so the CLI and the
// bench harness share one implementation.

package eval

import (
	"context"
	"fmt"
	"io"

	"dramdig/internal/core"
	"dramdig/internal/machine"
)

// AblationRow is one parameter point of an ablation sweep.
type AblationRow struct {
	// Param describes the swept value ("delta=0.05").
	Param string
	// Runs and Successes count attempts and correct recoveries.
	Runs, Successes int
	// AvgSimSeconds averages the simulated cost of successful runs.
	AvgSimSeconds float64
	// Note carries sweep-specific extra data.
	Note string
}

// ablateRun executes DRAMDig once and scores it. The run starts phase
// (in [0, 1)) of the way into a drift window. A cancelled context scores
// as a failed run; the sweeps break out early and their caller checks
// the context before trusting the rows.
func ablateRun(ctx context.Context, no int, machineSeed int64, phase float64, cfg core.Config) (ok bool, simSeconds float64, selected int) {
	m, err := machine.NewByNo(no, machineSeed)
	if err != nil {
		return false, 0, 0
	}
	m.AdvanceClock(phase * m.Controller().Params().DriftStepSeconds * 1e9)
	tool, err := core.New(m, cfg)
	if err != nil {
		return false, 0, 0
	}
	res, err := tool.RunContext(ctx)
	if err != nil {
		return false, 0, 0
	}
	return res.Mapping.EquivalentTo(m.Truth()), res.TotalSimSeconds, res.SelectedAddrs
}

// AblateDelta sweeps Algorithm 2's pile tolerance on setting No.2.
func AblateDelta(opts Options, deltas []float64, trials int) []AblationRow {
	var rows []AblationRow
	for _, d := range deltas {
		row := AblationRow{Param: fmt.Sprintf("delta=%.2f", d)}
		var sum float64
		for i := 0; i < trials; i++ {
			if opts.ctx().Err() != nil {
				break
			}
			ok, sec, _ := ablateRun(opts.ctx(), 2, opts.machineSeed(2)+int64(i), 0, core.Config{Seed: opts.Seed + int64(i), Delta: d})
			row.Runs++
			if ok {
				row.Successes++
				sum += sec
			}
		}
		if row.Successes > 0 {
			row.AvgSimSeconds = sum / float64(row.Successes)
		}
		rows = append(rows, row)
		opts.logf("ablate %s: %d/%d ok, avg %.0f s", row.Param, row.Successes, row.Runs, row.AvgSimSeconds)
	}
	return rows
}

// AblateRounds sweeps the partition measurement length on setting No.2.
func AblateRounds(opts Options, rounds []int, trials int) []AblationRow {
	var rows []AblationRow
	for _, r := range rounds {
		row := AblationRow{Param: fmt.Sprintf("rounds=%d", r)}
		var sum float64
		for i := 0; i < trials; i++ {
			if opts.ctx().Err() != nil {
				break
			}
			ok, sec, _ := ablateRun(opts.ctx(), 2, opts.machineSeed(2)+int64(i), 0, core.Config{Seed: opts.Seed + int64(i), PartitionRounds: r})
			row.Runs++
			if ok {
				row.Successes++
				sum += sec
			}
		}
		if row.Successes > 0 {
			row.AvgSimSeconds = sum / float64(row.Successes)
		}
		rows = append(rows, row)
		opts.logf("ablate %s: %d/%d ok, avg %.0f s", row.Param, row.Successes, row.Runs, row.AvgSimSeconds)
	}
	return rows
}

// AblatePoolSize sweeps the minimum selection size on setting No.1: the
// knowledge-guided pool is the efficiency lever of Algorithm 1.
func AblatePoolSize(opts Options, pools []int, trials int) []AblationRow {
	var rows []AblationRow
	for _, p := range pools {
		row := AblationRow{Param: fmt.Sprintf("pool=%d", p)}
		var sum float64
		selected := 0
		for i := 0; i < trials; i++ {
			if opts.ctx().Err() != nil {
				break
			}
			ok, sec, sel := ablateRun(opts.ctx(), 1, opts.machineSeed(1)+int64(i), 0, core.Config{Seed: opts.Seed + int64(i), MinPoolAddrs: p})
			row.Runs++
			selected = sel
			if ok {
				row.Successes++
				sum += sec
			}
		}
		if row.Successes > 0 {
			row.AvgSimSeconds = sum / float64(row.Successes)
		}
		row.Note = fmt.Sprintf("%d selected", selected)
		rows = append(rows, row)
		opts.logf("ablate %s: %d/%d ok, avg %.0f s (%s)", row.Param, row.Successes, row.Runs, row.AvgSimSeconds, row.Note)
	}
	return rows
}

// driftSeedBase is the first machine seed of the drift-guard ablation;
// run i takes seed driftSeedBase+i.
const driftSeedBase = 390

// AblateDriftGuard compares guarded vs unguarded DRAMDig on the
// high-drift setting No.3, with an enlarged pool and the paper's stop
// rule so runs span drift windows. Each run starts at a drift phase
// derived from its machine seed, (seed mod 24)/24 of a window, as a tool
// launched at an arbitrary moment would: 24 contiguous seeds cover the
// window evenly, so the outcome does not hinge on where one run starts.
func AblateDriftGuard(opts Options, trials int) []AblationRow {
	var rows []AblationRow
	for _, guard := range []bool{true, false} {
		name := "guard=on"
		if !guard {
			name = "guard=off"
		}
		row := AblationRow{Param: name}
		var sum float64
		for i := 0; i < trials; i++ {
			if opts.ctx().Err() != nil {
				break
			}
			seed := driftSeedBase + int64(i)
			ok, sec, _ := ablateRun(opts.ctx(), 3, seed, float64(seed%24)/24, core.Config{
				Seed:              1,
				MinPoolAddrs:      8192,
				PaperStop:         true,
				DisableDriftGuard: !guard,
			})
			row.Runs++
			if ok {
				row.Successes++
				sum += sec
			}
		}
		if row.Successes > 0 {
			row.AvgSimSeconds = sum / float64(row.Successes)
		}
		rows = append(rows, row)
		opts.logf("ablate %s: %d/%d ok", row.Param, row.Successes, row.Runs)
	}
	return rows
}

// RenderAblation writes an ablation sweep as a table.
func RenderAblation(w io.Writer, title string, rows []AblationRow) {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Param,
			fmt.Sprintf("%d/%d", r.Successes, r.Runs),
			fmt.Sprintf("%.0f", r.AvgSimSeconds),
			r.Note,
		})
	}
	RenderTable(w, title, []string{"Parameter", "Success", "Avg sim s", "Note"}, out)
}
