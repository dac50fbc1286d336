// TRR bypass: an extension experiment beyond the paper. Modern DDR4
// modules ship Target Row Refresh (TRR), an in-DRAM sampler that watches
// for hammered rows and refreshes their neighbours — it suppresses the
// classic double-sided attack almost entirely. The TRRespass observation
// is that the sampler tracks only a couple of rows: hammering many
// aggressors at once dilutes it. Both attacks need the DRAM address
// mapping DRAMDig recovers.
package main

import (
	"context"
	"fmt"
	"log"

	"dramdig"
	"dramdig/internal/dram"
	"dramdig/internal/machine"
	"dramdig/internal/rowhammer"
)

func main() {
	// A DDR4 machine like setting No.6, but with an aggressive TRR
	// sampler and the lower cell thresholds of newer dies.
	def, err := machine.ByNo(6)
	if err != nil {
		log.Fatal(err)
	}
	def.Name = "No.6-trr"
	def.Vuln = dram.VulnProfile{
		WeakRowFrac:   0.15,
		MaxWeakPerRow: 3,
		ThresholdMin:  60_000,
		ThresholdMax:  140_000,
		TRRProb:       0.9, // sampler catches a 2-row pattern 90% of windows
		TRRCapacity:   2,   // ...but tracks only two rows
	}

	newMachine := func() *dramdig.Machine {
		m, err := dramdig.NewCustomMachine(def, 83)
		if err != nil {
			log.Fatal(err)
		}
		return m
	}

	// First recover the mapping (TRR does not affect the timing
	// channel, only the flips).
	m := newMachine()
	res, err := dramdig.Run(context.Background(), dramdig.LiveSource(m), dramdig.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("machine:  %s (TRR prob %.0f%%, capacity %d)\n",
		def.Name, def.Vuln.TRRProb*100, def.Vuln.TRRCapacity)
	fmt.Printf("mapping:  %s\n\n", res.Mapping)

	run := func(mode rowhammer.Mode, label string) int {
		sess, err := rowhammer.NewSession(newMachine(), rowhammer.FromMapping(res.Mapping),
			rowhammer.Config{Mode: mode, Aggressors: 8, Seed: 4, BudgetSimSeconds: 120})
		if err != nil {
			log.Fatal(err)
		}
		r := sess.Run()
		fmt.Printf("%-22s %s\n", label+":", r)
		return r.Flips
	}

	ds := run(rowhammer.DoubleSided, "double-sided")
	ms := run(rowhammer.ManySided, "many-sided (8 rows)")

	if ms <= ds {
		log.Fatal("expected many-sided to bypass the sampler")
	}
	fmt.Printf("\nmany-sided slipped %dx more flips past the TRR sampler\n", ms/max(ds, 1))
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
