// Command dramdig reverse-engineers the DRAM address mapping of a
// simulated machine and prints it in the paper's notation, alongside the
// run's cost statistics and — when requested — the ground truth for
// comparison. The DRAMDig path runs through the facade Engine over a
// live source; ^C cancels the pipeline mid-measurement.
//
// Usage:
//
//	dramdig -machine 6 [-seed 42] [-v] [-truth] [-baseline drama|xiao|seaborn]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"dramdig"
	"dramdig/internal/addr"
	"dramdig/internal/buildinfo"
	"dramdig/internal/drama"
	"dramdig/internal/mapping"
	"dramdig/internal/seaborn"
	"dramdig/internal/xiao"
)

func main() {
	var (
		machineNo  = flag.Int("machine", 1, "paper machine setting (1-9)")
		seed       = flag.Int64("seed", 42, "simulation seed")
		verbose    = flag.Bool("v", false, "print tool progress")
		showTruth  = flag.Bool("truth", false, "print the simulator's ground-truth mapping")
		baseline   = flag.String("baseline", "", "run a baseline instead of DRAMDig: drama, xiao or seaborn")
		jsonOut    = flag.Bool("json", false, "print the recovered mapping as JSON (same schema for every tool)")
		showReport = flag.Bool("report", false, "print the full run report (DRAMDig only)")
		version    = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		buildinfo.Print("dramdig")
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	m, err := dramdig.NewMachine(*machineNo, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("=== Simulated machine %s ===\n%s\n", m.Name(), m.SysInfo().Report())

	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "  "+format+"\n", args...)
		}
	}

	switch *baseline {
	case "":
		res, err := dramdig.Run(ctx, dramdig.LiveSource(m),
			dramdig.WithSeed(*seed), dramdig.WithLogf(logf))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("DRAMDig result:   %s\n", res.Mapping)
		fmt.Printf("cost:             %.1f simulated s, %d measurements, %d selected addresses\n",
			res.TotalSimSeconds, res.Measurements, res.SelectedAddrs)
		if *showTruth {
			fmt.Printf("ground truth:     %s\n", m.Truth())
			fmt.Printf("equivalent:       %v\n", res.Mapping.EquivalentTo(m.Truth()))
		}
		if *showReport {
			fmt.Println()
			fmt.Print(res.Report())
		}
		if *jsonOut {
			printMappingJSON(res.Mapping, nil, nil, nil, 0)
		}
	case "drama":
		res, err := drama.New(m, drama.Config{Seed: *seed, Logf: logf}).RunContext(ctx)
		if errors.Is(err, drama.ErrTimeout) {
			fmt.Printf("DRAMA: %v\n", err)
			return
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("DRAMA result:     %s\n", res)
		fmt.Printf("cost:             %.1f simulated s, %d attempts\n", res.TotalSimSeconds, res.Attempts)
		if *jsonOut {
			printMappingJSON(res.Mapping, res.Funcs, res.RowBits, res.ColBits, m.SysInfo().PhysBits())
		}
	case "xiao":
		res, err := xiao.New(m, xiao.Config{Seed: *seed, Logf: logf}).RunContext(ctx)
		var stuck *xiao.ErrStuck
		if errors.As(err, &stuck) {
			fmt.Printf("Xiao et al.: %v\n", err)
			return
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Xiao result:      %s\n", res)
		fmt.Printf("cost:             %.1f simulated s\n", res.TotalSimSeconds)
		if *jsonOut {
			printMappingJSON(res.Mapping, res.Funcs, res.RowBits, res.ColBits, m.SysInfo().PhysBits())
		}
	case "seaborn":
		res, err := seaborn.New(m, seaborn.Config{Seed: *seed, Logf: logf}).RunContext(ctx)
		if errors.Is(err, seaborn.ErrNoFlips) {
			fmt.Printf("Seaborn et al.: %v\n", err)
			return
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Seaborn result:   %s\n", res)
		fmt.Printf("cost:             %.1f simulated s\n", res.TotalSimSeconds)
		if *jsonOut {
			// The blind analysis recovers candidate bank functions only.
			printMappingJSON(nil, res.CandidateFuncs, nil, nil, m.SysInfo().PhysBits())
		}
	default:
		fatal(fmt.Errorf("unknown baseline %q (want drama, xiao or seaborn)", *baseline))
	}
}

// mappingJSONOut mirrors the mapping wire schema (internal/mapping), so
// every tool's -json output has the same shape even when a baseline
// recovers only part of a mapping.
type mappingJSONOut struct {
	PhysBits  uint     `json:"phys_bits"`
	BankFuncs []string `json:"bank_funcs"`
	RowBits   string   `json:"row_bits"`
	ColBits   string   `json:"col_bits"`
}

// printMappingJSON prints m when it is a complete validated mapping;
// otherwise it assembles the same schema from the partial fields.
func printMappingJSON(m *mapping.Mapping, funcs []uint64, rowBits, colBits []uint, physBits uint) {
	var v any = m
	if m == nil {
		out := mappingJSONOut{
			PhysBits:  physBits,
			BankFuncs: make([]string, len(funcs)),
			RowBits:   addr.FormatBitRanges(rowBits),
			ColBits:   addr.FormatBitRanges(colBits),
		}
		for i, f := range funcs {
			out.BankFuncs[i] = addr.FormatBits(addr.BitsFromMask(f))
		}
		v = out
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dramdig:", err)
	os.Exit(1)
}
