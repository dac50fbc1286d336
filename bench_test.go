// Benchmark harness regenerating every table and figure of the paper's
// evaluation, plus ablations of DRAMDig's design choices.
//
//	go test -bench=. -benchmem
//
// Each Benchmark<Artefact> runs the corresponding experiment and reports
// the paper's quantities as benchmark metrics (sim_s/op style); the first
// iteration also prints the regenerated table so bench output doubles as
// the reproduction artefact.
package dramdig

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"dramdig/internal/core"
	"dramdig/internal/drama"
	"dramdig/internal/engine"
	"dramdig/internal/eval"
	"dramdig/internal/machine"
	"dramdig/internal/metrics"
	"dramdig/internal/obs"
)

// BenchmarkTable2 regenerates Table II: DRAMDig's recovered mappings on
// the nine machine settings.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.Table2(eval.Options{Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		matches, simTotal := 0, 0.0
		for _, r := range rows {
			if r.Match {
				matches++
			}
			simTotal += r.SimSeconds
		}
		if i == 0 {
			eval.RenderTable2(os.Stdout, rows)
		}
		b.ReportMetric(float64(matches), "matches")
		b.ReportMetric(simTotal/float64(len(rows)), "avg_sim_s")
	}
}

// BenchmarkFigure2 regenerates Figure 2: time costs of DRAMDig vs DRAMA
// per setting (simulated seconds; DRAMA capped at two hours).
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.Figure2(eval.Options{Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		var dig, digPaper, dr float64
		timeouts := 0
		for _, r := range rows {
			dig += r.DRAMDigSec
			digPaper += r.DRAMDigPaperSec
			dr += r.DRAMASec
			if r.DRAMATimeout {
				timeouts++
			}
		}
		if i == 0 {
			eval.RenderFigure2(os.Stdout, rows)
		}
		b.ReportMetric(dig/9, "dramdig_avg_sim_s")
		b.ReportMetric(digPaper/9, "dramdig_paper_stop_avg_sim_s")
		b.ReportMetric(dr/9, "drama_avg_sim_s")
		b.ReportMetric(float64(timeouts), "drama_timeouts")
	}
}

// BenchmarkTable3 regenerates Table III: double-sided rowhammer flips
// with DRAMDig vs DRAMA mappings on settings No.1/No.2/No.5.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.Table3(eval.Options{Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		var dig, dr int
		for _, r := range rows {
			dig += r.DigTotal
			dr += r.DramaTotal
		}
		if i == 0 {
			eval.RenderTable3(os.Stdout, rows)
		}
		b.ReportMetric(float64(dig), "dramdig_flips")
		b.ReportMetric(float64(dr), "drama_flips")
	}
}

// BenchmarkTable1 regenerates Table I: the qualitative tool comparison.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.Table1(eval.Options{Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		score := 0
		for _, r := range rows {
			if r.Tool == "DRAMDig" && r.Generic && r.Efficient && r.Deterministic {
				score = 3
			}
		}
		if i == 0 {
			eval.RenderTable1(os.Stdout, rows)
		}
		b.ReportMetric(float64(score), "dramdig_properties")
	}
}

// BenchmarkReverseEngineerPerSetting reports DRAMDig's simulated cost per
// machine — the per-bar breakdown behind Figure 2. Every iteration runs
// the same machine at the same tool seed, so sim_s, measurements and
// selected describe that one run whatever -benchtime is.
func BenchmarkReverseEngineerPerSetting(b *testing.B) {
	for no := 1; no <= 9; no++ {
		b.Run(fmt.Sprintf("No%d", no), func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				m, err := machine.NewByNo(no, 42)
				if err != nil {
					b.Fatal(err)
				}
				tool, err := core.New(m, core.Config{Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				if res, err = tool.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.TotalSimSeconds, "sim_s")
			b.ReportMetric(float64(res.Measurements), "measurements")
			b.ReportMetric(float64(res.SelectedAddrs), "selected")
		})
	}
}

// --- Ablations -------------------------------------------------------

// benchAblation runs one trial of one point of an eval ablation sweep
// per iteration, at one fixed seed, and reports its outcome.
func benchAblation(b *testing.B, name string, sweep func(eval.Options) []eval.AblationRow) {
	b.Run(name, func(b *testing.B) {
		var r eval.AblationRow
		for i := 0; i < b.N; i++ {
			r = sweep(eval.Options{Seed: 1})[0]
		}
		b.ReportMetric(float64(r.Successes), "success")
		b.ReportMetric(r.AvgSimSeconds, "sim_s")
		b.ReportMetric(float64(r.Selected), "selected")
	})
}

// BenchmarkAblationSelection contrasts DRAMDig's knowledge-guided
// Algorithm 1 pool against progressively oversized pools
// (eval.AblatePoolSize): the selected address count drives the
// partition cost (paper §IV-B).
func BenchmarkAblationSelection(b *testing.B) {
	for _, minPool := range []int{4096, 8192, 16384} {
		benchAblation(b, fmt.Sprintf("pool%d", minPool), func(o eval.Options) []eval.AblationRow {
			return eval.AblatePoolSize(o, []int{minPool}, 1)
		})
	}
}

// BenchmarkAblationDelta sweeps Algorithm 2's pile tolerance δ
// (eval.AblateDelta). Too tight a tolerance rejects legitimate piles
// (same-row members keep piles slightly under the ideal size); the
// paper's 0.2 is comfortable.
func BenchmarkAblationDelta(b *testing.B) {
	for _, delta := range []float64{0.05, 0.2, 0.4} {
		benchAblation(b, fmt.Sprintf("delta%.2f", delta), func(o eval.Options) []eval.AblationRow {
			return eval.AblateDelta(o, []float64{delta}, 1)
		})
	}
}

// BenchmarkAblationRounds sweeps the partition measurement length
// (eval.AblateRounds): shorter measurements are cheaper but noisier.
func BenchmarkAblationRounds(b *testing.B) {
	for _, rounds := range []int{150, 600, 2400} {
		benchAblation(b, fmt.Sprintf("rounds%d", rounds), func(o eval.Options) []eval.AblationRow {
			return eval.AblateRounds(o, []int{rounds}, 1)
		})
	}
}

// BenchmarkAblationDriftGuard measures the sentinel-based drift guard on
// the paper's hardest setting (No.3), over the drift-phase sweep of
// eval.AblateDriftGuard: without it DRAMDig degrades to DRAMA-like
// failure.
func BenchmarkAblationDriftGuard(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, r := range eval.AblateDriftGuard(eval.Options{}, 24) {
			b.ReportMetric(float64(r.Successes)/float64(r.Runs), strings.TrimPrefix(r.Param, "guard=")+"_success_rate")
		}
	}
}

// BenchmarkDRAMAConvergence reports DRAMA's cost on a quiet setting, for
// the Figure 2 gap at micro scale.
func BenchmarkDRAMAConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, _ := machine.NewByNo(8, 42)
		tool, err := drama.New(m, drama.Config{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		res, err := tool.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TotalSimSeconds, "sim_s")
	}
}

// --- Campaign throughput ---------------------------------------------

// BenchmarkCampaign contrasts sequential and pooled execution of one
// campaign over the four cheapest paper settings. On multi-core hosts the
// pooled variant's machines/s scales with GOMAXPROCS; on a single core
// the two are expected to tie (pure CPU-bound simulation).
func BenchmarkCampaign(b *testing.B) {
	all := PaperCampaign(42)
	specs := []CampaignSpec{all[0], all[3], all[6], all[7]} // No.1, No.4, No.7, No.8
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{fmt.Sprintf("pooled-%d", runtime.GOMAXPROCS(0)), runtime.GOMAXPROCS(0)},
	} {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := RunCampaign(context.Background(), specs, CampaignConfig{
					Workers: bc.workers,
					Seed:    1,
				})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Succeeded != len(specs) {
					b.Fatalf("campaign degraded: %d/%d jobs ok", rep.Succeeded, rep.Total)
				}
			}
			b.ReportMetric(float64(len(specs)*b.N)/b.Elapsed().Seconds(), "machines/s")
		})
	}
}

// --- Engine: live vs replay ------------------------------------------

// BenchmarkEngineLiveVsReplay contrasts one full pipeline run on a live
// simulated machine against the identical run re-served from a recorded
// trace through the Engine/Source API — the offline path's speedup is
// the reason recorded campaigns exist. End to end, perfbench's
// replay_small workload tracks strict replays across commits.
func BenchmarkEngineLiveVsReplay(b *testing.B) {
	record := func(b *testing.B) *Trace {
		b.Helper()
		m, err := NewMachine(4, 42)
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := Run(context.Background(), LiveSource(m), WithSeed(42), WithTraceSink(&buf)); err != nil {
			b.Fatal(err)
		}
		tr, err := DecodeTrace(&buf)
		if err != nil {
			b.Fatal(err)
		}
		return tr
	}
	b.Run("live", func(b *testing.B) {
		var meas uint64
		for i := 0; i < b.N; i++ {
			m, err := NewMachine(4, 42)
			if err != nil {
				b.Fatal(err)
			}
			res, err := Run(context.Background(), LiveSource(m), WithSeed(42))
			if err != nil {
				b.Fatal(err)
			}
			meas = res.Measurements
		}
		b.ReportMetric(float64(meas)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
	})
	b.Run("replay", func(b *testing.B) {
		tr := record(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Run(context.Background(), TraceSource(tr, ReplayStrict)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(tr.Samples)*b.N)/b.Elapsed().Seconds(), "samples/s")
	})
}

// BenchmarkEngineOverhead prices the engine's per-sample metrics
// instrumentation and a span tracer against the bare pipeline; it is
// the metrics_overhead and tracing_overhead rows of BENCH_campaign.json.
// Every iteration runs one No.4 pipeline (machine build included, as in
// EngineLiveVsReplay/live) three ways: bare, instrumented on a real
// registry, and with a tracer on the context. The three rotate which
// goes first, so a slow phase of the host hits them alike. Each side
// reports its mean time per run as <side>_ns_op. Each cost side also
// reports the median over iterations of its overhead on the same
// iteration's bare run, as <side>_overhead_pct: ratios within one
// iteration cancel the host's slow phases, and their median ignores
// the odd run the scheduler interrupts.
func BenchmarkEngineOverhead(b *testing.B) {
	inst := engine.NewInstrument(metrics.NewRegistry())
	traced := obs.WithTracer(context.Background(), obs.NewTracer(obs.Config{Capacity: 4096}))
	sides := []struct {
		name string
		ctx  context.Context
		opts []EngineOption
	}{
		{"bare", context.Background(), []EngineOption{WithSeed(42)}},
		{"instrumented", context.Background(), []EngineOption{WithSeed(42), engine.WithInstrument(inst)}},
		{"traced", traced, []EngineOption{WithSeed(42)}},
	}
	ns := make([][]float64, len(sides)) // ns[side][iteration]
	for i := 0; i < b.N; i++ {
		for k := range sides {
			s := (i + k) % len(sides)
			start := time.Now()
			m, err := NewMachine(4, 42)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := Run(sides[s].ctx, LiveSource(m), sides[s].opts...); err != nil {
				b.Fatal(err)
			}
			ns[s] = append(ns[s], float64(time.Since(start)))
		}
	}
	pct := make([]float64, b.N)
	for s, side := range sides {
		var sum float64
		for i, t := range ns[s] {
			sum += t
			pct[i] = (t/ns[0][i] - 1) * 100
		}
		b.ReportMetric(sum/float64(b.N), side.name+"_ns_op")
		if s > 0 {
			slices.Sort(pct)
			b.ReportMetric(pct[b.N/2], side.name+"_overhead_pct")
		}
	}
}
