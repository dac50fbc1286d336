// Randomized machine generation: Intel-plausible DRAM configurations
// beyond the paper's nine settings, for property-style validation of the
// reverse-engineering pipeline. Generated machines respect the domain
// knowledge DRAMDig relies on (row index at the top of the physical
// space, cache-line-granular columns, XOR bank functions whose widest
// member anchors on a non-column low bit), because that knowledge is an
// assumption of the method, not of any particular machine.

package machine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"dramdig/internal/dram"
	"dramdig/internal/specs"
	"dramdig/internal/sysinfo"
)

// GenerateDefinition builds a random but self-consistent machine
// definition. The generator draws one of three structural families, all
// observed on real Intel platforms:
//
//   - "disjoint": single channel/rank; every bank function pairs a pure
//     bank bit with a shared row bit (the paper's No.3/No.4 shape);
//   - "channel": dual channel with a single-bit channel function at bit 6
//     (the No.1 shape);
//   - "wide": dual channel, dual rank with a wide rank function mixing a
//     low anchor bit, shared column bits and shared row bits (the
//     No.2/No.5 shape).
func GenerateDefinition(rng *rand.Rand) (Definition, error) {
	parts := make([]string, 0, len(specs.Catalog))
	for p := range specs.Catalog {
		parts = append(parts, p)
	}
	sort.Strings(parts)
	chip := specs.Catalog[parts[rng.Intn(len(parts))]]
	rows := chip.PhysRowBits()
	bpr := chip.BanksPerRank
	lg := func(n int) int {
		b := 0
		for 1<<(b+1) <= n {
			b++
		}
		return b
	}

	cols := chip.PhysColBits() // 13 or 14 depending on the part
	family := []string{"disjoint", "channel", "wide"}[rng.Intn(3)]
	var (
		cfg      sysinfo.DIMMConfig
		funcs    []string
		colBits  string
		L        int
		physBits int
	)
	switch family {
	case "disjoint":
		// Pure bank bits directly above the column range.
		cfg = sysinfo.DIMMConfig{Channels: 1, DIMMsPerChan: 1, RanksPerDIMM: 1, BanksPerRank: bpr}
		L = lg(bpr)
		physBits = rows + cols + L
		rowStart := physBits - rows
		colBits = fmt.Sprintf("0~%d", cols-1)
		for i := 0; i < L; i++ {
			funcs = append(funcs, fmt.Sprintf("(%d, %d)", cols+i, rowStart+i))
		}
	case "channel":
		// Single-bit channel function at bit 6; columns flow around it.
		cfg = sysinfo.DIMMConfig{Channels: 2, DIMMsPerChan: 1, RanksPerDIMM: 1, BanksPerRank: bpr}
		L = lg(bpr) + 1
		physBits = rows + cols + L
		rowStart := physBits - rows
		colBits = fmt.Sprintf("0~5, 7~%d", cols)
		funcs = append(funcs, "(6)")
		for i := 0; i < L-1; i++ {
			funcs = append(funcs, fmt.Sprintf("(%d, %d)", cols+1+i, rowStart+i))
		}
	case "wide":
		// Wide rank function anchored at bit 7 with shared column and
		// shared row bits.
		cfg = sysinfo.DIMMConfig{Channels: 2, DIMMsPerChan: 1, RanksPerDIMM: 2, BanksPerRank: bpr}
		L = lg(bpr) + 2
		physBits = rows + cols + L
		rowStart := physBits - rows
		colBits = fmt.Sprintf("0~6, 8~%d", cols)
		funcs = append(funcs, fmt.Sprintf("(7, 8, 9, 12, 13, %d, %d)", rowStart, rowStart+1))
		for i := 0; i < L-1; i++ {
			funcs = append(funcs, fmt.Sprintf("(%d, %d)", cols+1+i, rowStart+i))
		}
	}
	if physBits > 36 {
		return Definition{}, fmt.Errorf("machine: generated %d-bit space too large (chip %s, family %s)",
			physBits, chip.Part, family)
	}

	def := Definition{
		No:        0,
		Name:      fmt.Sprintf("gen-%s-%s", family, chip.Part),
		Microarch: "Generated",
		CPU:       "synthetic",
		Standard:  chip.Standard,
		MemBytes:  1 << uint(physBits),
		Config:    cfg,
		ChipPart:  chip.Part,
		BankFuncs: strings.Join(funcs, ", "),
		RowBits:   fmt.Sprintf("%d~%d", physBits-rows, physBits-1),
		ColBits:   colBits,
		Vuln:      dram.Invulnerable,
	}
	return def, nil
}
