// Command rowhammer runs double-sided rowhammer test sessions against a
// simulated machine, either with the mapping DRAMDig recovers (default)
// or with a fresh DRAMA run's mapping, reproducing the methodology of the
// paper's Table III.
//
// Usage:
//
//	rowhammer -machine 2 -tests 5 [-tool dramdig|drama|truth] [-minutes 5]
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"dramdig/internal/core"
	"dramdig/internal/drama"
	"dramdig/internal/machine"
	"dramdig/internal/rowhammer"
)

func main() {
	var (
		machineNo = flag.Int("machine", 1, "paper machine setting (1-9)")
		seed      = flag.Int64("seed", 42, "simulation seed")
		tests     = flag.Int("tests", 5, "number of test sessions")
		minutes   = flag.Float64("minutes", 5, "simulated minutes per session")
		tool      = flag.String("tool", "dramdig", "mapping source: dramdig, drama or truth")
		mode      = flag.String("mode", "double", "hammering mode: double, one-location or many-sided")
		nAggr     = flag.Int("aggressors", 8, "aggressor rows per group (many-sided mode)")
	)
	flag.Parse()

	m, err := machine.NewByNo(*machineNo, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("=== Rowhammer on %s using the %s mapping ===\n", m.Name(), *tool)

	var belief rowhammer.ToolMapping
	switch *tool {
	case "truth":
		belief = rowhammer.FromMapping(m.Truth())
	case "dramdig":
		dig, err := core.New(m, core.Config{Seed: *seed})
		if err != nil {
			fatal(err)
		}
		res, err := dig.Run()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("recovered mapping: %s (%.0f sim s)\n", res.Mapping, res.TotalSimSeconds)
		belief = rowhammer.FromMapping(res.Mapping)
	case "drama":
		res, err := drama.New(m, drama.Config{Seed: *seed}).Run()
		if errors.Is(err, drama.ErrTimeout) {
			fmt.Printf("DRAMA produced no mapping (%v); nothing to hammer with\n", err)
			return
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("recovered mapping: %s (%.0f sim s)\n", res, res.TotalSimSeconds)
		belief = rowhammer.ToolMapping{Funcs: res.Funcs, RowBits: res.RowBits, Full: res.Mapping}
	default:
		fatal(fmt.Errorf("unknown tool %q", *tool))
	}

	var hammerMode rowhammer.Mode
	switch *mode {
	case "double":
		hammerMode = rowhammer.DoubleSided
	case "one-location":
		hammerMode = rowhammer.OneLocation
	case "many-sided":
		hammerMode = rowhammer.ManySided
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}

	total := 0
	for t := 0; t < *tests; t++ {
		sess, err := rowhammer.NewSession(m, belief, rowhammer.Config{
			Mode:             hammerMode,
			Aggressors:       *nAggr,
			Seed:             *seed*1000 + int64(t),
			BudgetSimSeconds: *minutes * 60,
		})
		if err != nil {
			fatal(err)
		}
		res := sess.Run()
		total += res.Flips
		fmt.Printf("T%d: %s\n", t+1, res)
	}
	fmt.Printf("total: %d bit flips over %d tests\n", total, *tests)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rowhammer:", err)
	os.Exit(1)
}
