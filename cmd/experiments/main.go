// Command experiments regenerates the paper's evaluation artefacts —
// Table I (tool comparison), Table II (recovered mappings), Figure 2
// (time costs) and Table III (rowhammer flips) — against the simulated
// machines, printing ASCII tables and optionally CSV files. Two opt-in
// extras go beyond the paper: -only robustness sweeps DRAMDig under
// scaled timing noise, and -only ablate runs the design ablations.
//
// Usage:
//
//	experiments [-seed 42] [-only table1,table2,fig2,table3,robustness,ablate] [-csv dir] [-v]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"dramdig/internal/eval"
)

func main() {
	var (
		seed    = flag.Int64("seed", 42, "master seed")
		only    = flag.String("only", "table1,table2,fig2,table3", "comma-separated artefacts to regenerate (table1,table2,fig2,table3,robustness,ablate)")
		csvDir  = flag.String("csv", "", "when set, also write CSV files into this directory")
		mdPath  = flag.String("md", "", "when set, also write a markdown report to this file")
		verbose = flag.Bool("v", false, "print per-run progress")
	)
	flag.Parse()

	// ^C aborts the sweep mid-measurement: the context threads through
	// every pipeline, baseline and hammer session eval starts.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := eval.Options{Seed: *seed, Ctx: ctx}
	if *verbose {
		opts.Log = os.Stderr
	}
	want := map[string]bool{}
	for _, k := range strings.Split(*only, ",") {
		want[strings.TrimSpace(k)] = true
	}
	var mdT2 []eval.Table2Row
	var mdF2 []eval.Fig2Row
	var mdT3 []eval.Table3Row
	var mdT1 []eval.Table1Row

	if want["table2"] {
		rows, err := eval.Table2(opts)
		check(err)
		mdT2 = rows
		eval.RenderTable2(os.Stdout, rows)
		fmt.Println()
		if *csvDir != "" {
			writeCSV(*csvDir, "table2.csv",
				[]string{"no", "microarch", "dram", "config", "funcs", "rows", "cols", "match", "sim_seconds", "selected"},
				func(w io.Writer, headers []string) {
					var out [][]string
					for _, r := range rows {
						out = append(out, []string{
							fmt.Sprint(r.No), r.Microarch, r.DRAM, r.Config,
							r.BankFuncs, r.RowBits, r.ColBits,
							fmt.Sprint(r.Match), fmt.Sprintf("%.1f", r.SimSeconds), fmt.Sprint(r.SelectedAddrs),
						})
					}
					eval.RenderCSV(w, headers, out)
				})
		}
	}
	if want["fig2"] {
		rows, err := eval.Figure2(opts)
		check(err)
		mdF2 = rows
		eval.RenderFigure2(os.Stdout, rows)
		fmt.Println()
		if *csvDir != "" {
			writeCSV(*csvDir, "figure2.csv",
				[]string{"no", "dramdig_s", "dramdig_paper_stop_s", "drama_s", "drama_timeout", "selected"},
				func(w io.Writer, headers []string) {
					var out [][]string
					for _, r := range rows {
						out = append(out, []string{
							fmt.Sprint(r.No), fmt.Sprintf("%.1f", r.DRAMDigSec), fmt.Sprintf("%.1f", r.DRAMDigPaperSec),
							fmt.Sprintf("%.1f", r.DRAMASec), fmt.Sprint(r.DRAMATimeout), fmt.Sprint(r.SelectedAddrs),
						})
					}
					eval.RenderCSV(w, headers, out)
				})
		}
	}
	if want["table3"] {
		rows, err := eval.Table3(opts)
		check(err)
		mdT3 = rows
		eval.RenderTable3(os.Stdout, rows)
		fmt.Println()
		if *csvDir != "" {
			writeCSV(*csvDir, "table3.csv",
				[]string{"no", "test", "dramdig_flips", "drama_flips"},
				func(w io.Writer, headers []string) {
					var out [][]string
					for _, r := range rows {
						for t := 0; t < 5; t++ {
							out = append(out, []string{
								fmt.Sprint(r.No), fmt.Sprint(t + 1),
								fmt.Sprint(r.Dig[t]), fmt.Sprint(r.Drama[t]),
							})
						}
					}
					eval.RenderCSV(w, headers, out)
				})
		}
	}
	if want["table1"] {
		rows, err := eval.Table1(opts)
		check(err)
		mdT1 = rows
		eval.RenderTable1(os.Stdout, rows)
		fmt.Println()
	}
	if want["robustness"] {
		// The sweep scores a cancelled run as a failure, so a cancelled
		// sweep must abort before its partial rows render.
		rows := eval.NoiseSweep(opts, eval.NoiseScales, 24)
		check(ctx.Err())
		eval.RenderNoise(os.Stdout, rows)
		fmt.Println()
	}
	if *mdPath != "" {
		f, err := os.Create(*mdPath)
		check(err)
		eval.WriteMarkdownReport(f, *seed, mdT2, mdF2, mdT3, mdT1)
		check(f.Close())
		fmt.Printf("markdown report written to %s\n", *mdPath)
	}
	if want["ablate"] {
		// The sweeps score a cancelled run as a failure, so a cancelled
		// sweep must abort before its partial rows render as results.
		renderAblation := func(title string, rows []eval.AblationRow) {
			check(ctx.Err())
			eval.RenderAblation(os.Stdout, title, rows)
			fmt.Println()
		}
		renderAblation("Ablation: Algorithm 2 pile tolerance (No.2)",
			eval.AblateDelta(opts, []float64{0.05, 0.1, 0.2, 0.4}, 3))
		renderAblation("Ablation: partition measurement rounds (No.2)",
			eval.AblateRounds(opts, []int{150, 600, 2400}, 3))
		renderAblation("Ablation: minimum selection size (No.1)",
			eval.AblatePoolSize(opts, []int{4096, 8192, 16384}, 3))
		renderAblation("Ablation: sentinel drift guard (No.3, enlarged pool, paper stop rule)",
			eval.AblateDriftGuard(opts, 24))
	}
}

func writeCSV(dir, name string, headers []string, fill func(io.Writer, []string)) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		check(err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	check(err)
	defer f.Close()
	fill(f, headers)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
