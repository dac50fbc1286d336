// Rowhammer assessment: the paper's motivating use case. Recover the
// DRAM address mapping of a machine, then use it to measure how
// vulnerable the machine is to double-sided rowhammer — and show how much
// worse a wrong mapping performs (the Table III methodology in miniature).
package main

import (
	"context"
	"fmt"
	"log"

	"dramdig"
	"dramdig/internal/rowhammer"
)

func main() {
	// Setting No.2 is the paper's most flippable machine.
	m, err := dramdig.NewMachine(2, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("assessing %s (%s)\n", m.Name(), m.SysInfo().CPU)

	res, err := dramdig.Run(context.Background(), dramdig.LiveSource(m), dramdig.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mapping: %s\n\n", res.Mapping)

	// One-minute assessment with the recovered (correct) mapping.
	good, err := dramdig.Hammer(m, res.Mapping, dramdig.HammerConfig{
		Seed: 11, BudgetSimSeconds: 60,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with DRAMDig's mapping:  %s\n", good)

	// The same assessment with a deliberately wrong belief: row bits
	// shifted up by two positions (a mistake a cruder tool makes when
	// it cannot see shared row bits). Aggressors land rows apart from
	// the victim and the flip yield collapses.
	wrong := rowhammer.ToolMapping{
		Funcs:   res.Mapping.BankFuncs,
		RowBits: res.Mapping.RowBits[2:],
	}
	sess, err := rowhammer.NewSession(m, wrong, rowhammer.Config{Seed: 11, BudgetSimSeconds: 60})
	if err != nil {
		log.Fatal(err)
	}
	bad := sess.Run()
	fmt.Printf("with a wrong mapping:    %s\n", bad)

	if good.Flips <= bad.Flips {
		log.Fatal("expected the correct mapping to induce more flips")
	}
	fmt.Printf("\ncorrect mapping induced %.1fx the flips of the wrong one\n",
		float64(good.Flips)/float64(max(bad.Flips, 1)))
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
