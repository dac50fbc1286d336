// Custom machine: define a DDR4 configuration that is not among the
// paper's nine settings — a hypothetical dual-channel, single-rank
// Coffee Lake box — and verify DRAMDig recovers its mapping from timing
// measurements alone.
package main

import (
	"context"
	"fmt"
	"log"

	"dramdig"
	"dramdig/internal/dram"
	"dramdig/internal/specs"
	"dramdig/internal/sysinfo"
)

func main() {
	def := dramdig.MachineDefinition{
		No:        0,
		Name:      "custom-cfl",
		Microarch: "Coffee Lake",
		CPU:       "i7-8700",
		Standard:  specs.DDR4,
		MemBytes:  8 << 30,
		Config:    sysinfo.DIMMConfig{Channels: 2, DIMMsPerChan: 1, RanksPerDIMM: 1, BanksPerRank: 16},
		ChipPart:  "MT40A512M8",
		// A plausible dual-channel DDR4 mapping: channel on a low-bit
		// XOR, bank-group/bank functions pairing with shared row bits.
		BankFuncs: "(7, 8, 9, 12, 13, 18, 19), (14, 18), (15, 19), (16, 20), (17, 21)",
		RowBits:   "18~32",
		ColBits:   "0~6, 8~13",
		Vuln:      dram.VulnProfile{WeakRowFrac: 0.05, MaxWeakPerRow: 2, ThresholdMin: 250_000, ThresholdMax: 2_000_000},
	}

	m, err := dramdig.NewCustomMachine(def, 99)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(m.SysInfo().Report())

	res, err := dramdig.Run(context.Background(), dramdig.LiveSource(m), dramdig.WithSeed(3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered: %s\n", res.Mapping)
	fmt.Printf("truth:     %s\n", m.Truth())
	if !res.Mapping.EquivalentTo(m.Truth()) {
		log.Fatal("mapping mismatch — detection failed on the custom configuration")
	}
	fmt.Println("custom configuration recovered correctly")
	fmt.Printf("selected addresses: %d, piles: %d, shared row bits: %v, shared col bits: %v\n",
		res.SelectedAddrs, res.Piles, res.SharedRowBits, res.SharedColBits)
}
