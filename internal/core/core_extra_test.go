package core

import (
	"fmt"
	"testing"

	"dramdig/internal/addr"
	"dramdig/internal/machine"
	"dramdig/internal/mapping"
)

// TestDeterministicAcrossSeeds is the paper's headline property: the
// recovered mapping is identical (canonical form) whatever the tool's
// internal randomness, even on the noisiest settings.
func TestDeterministicAcrossSeeds(t *testing.T) {
	for _, no := range []int{1, 2, 7} {
		var first string
		for _, toolSeed := range []int64{1, 999, 424242} {
			res := runOn(t, no, int64(no)*1313, toolSeed)
			s := res.Mapping.String()
			if first == "" {
				first = s
				continue
			}
			if s != first {
				t.Errorf("No.%d: seed %d produced %s, earlier run produced %s",
					no, toolSeed, s, first)
			}
		}
	}
}

// TestSelectionCounts reproduces §IV-B: DRAMDig selects the most
// addresses (~16000) on No.6/No.9 and ~4000 on No.8.
func TestSelectionCounts(t *testing.T) {
	counts := map[int]int{}
	for _, no := range []int{1, 6, 8, 9} {
		res := runOn(t, no, int64(no)*7, 5)
		counts[no] = res.SelectedAddrs
	}
	if counts[6] != 16384 || counts[9] != 16384 {
		t.Errorf("No.6/No.9 selected %d/%d, want 16384 (paper: almost 16,000)", counts[6], counts[9])
	}
	if counts[8] != 4096 {
		t.Errorf("No.8 selected %d, want 4096 (paper: about 4,000)", counts[8])
	}
	if counts[1] >= counts[6] {
		t.Errorf("No.1 (%d) should select fewer than No.6 (%d)", counts[1], counts[6])
	}
}

// TestSharedBitDetection verifies Step 3 output in detail on the two
// structurally hardest settings.
func TestSharedBitDetection(t *testing.T) {
	res2 := runOn(t, 2, 77, 1)
	if !addr.EqualBitSets(res2.SharedRowBits, []uint{18, 19, 20, 21}) {
		t.Errorf("No.2 shared rows = %v", res2.SharedRowBits)
	}
	if !addr.EqualBitSets(res2.SharedColBits, []uint{8, 9, 12, 13}) {
		t.Errorf("No.2 shared cols = %v", res2.SharedColBits)
	}
	res6 := runOn(t, 6, 78, 1)
	if !addr.EqualBitSets(res6.SharedColBits, []uint{7, 9, 12, 13}) {
		t.Errorf("No.6 shared cols = %v (the empirical lowest-bit rule must exclude 8)", res6.SharedColBits)
	}
}

// TestFineRuleReadsCanonicalBasis: Algorithm 3 may return any basis of
// the bank-function span. Step 3's lowest-bit rule must give the same
// columns for an equivalent basis whose widest function is not unique:
// No.6's (18, 22) replaced by (18, 22) ⊕ (8, 9, 12, 13, 18, 19).
func TestFineRuleReadsCanonicalBasis(t *testing.T) {
	m, err := machine.NewByNo(6, 78)
	if err != nil {
		t.Fatal(err)
	}
	truth := m.Truth()
	funcs, err := mapping.ParseFuncs("(7, 14), (15, 19), (16, 20), (17, 21), (8, 9, 12, 13, 19, 22), (8, 9, 12, 13, 18, 19)")
	if err != nil {
		t.Fatal(err)
	}
	if !(&mapping.Mapping{BankFuncs: funcs}).EquivalentTo(&mapping.Mapping{BankFuncs: truth.BankFuncs}) {
		t.Fatal("test basis does not span the true functions")
	}
	tool := calibratedTool(t, m, Config{Seed: 1})
	fine, err := tool.fineDetect(m.SysInfo(), truthCoarse(truth), funcs)
	if err != nil {
		t.Fatal(err)
	}
	if !addr.EqualBitSets(fine.sharedCol, []uint{7, 9, 12, 13}) {
		t.Errorf("shared cols = %v, want 7, 9, 12, 13", fine.sharedCol)
	}
	if !addr.EqualBitSets(fine.sharedRow, []uint{19, 20, 21, 22}) {
		t.Errorf("shared rows = %v, want 19~22", fine.sharedRow)
	}
}

// TestStepStatsAccounted: per-step stats sum up to the totals and the
// partition dominates, as §IV-B observes.
func TestStepStatsAccounted(t *testing.T) {
	res := runOn(t, 6, 11, 2)
	var stepMeas uint64
	var stepSec float64
	for _, s := range res.Steps {
		stepMeas += s.Measurements
		stepSec += s.SimSeconds
	}
	if stepMeas != res.Measurements {
		t.Errorf("step measurements %d != total %d", stepMeas, res.Measurements)
	}
	if diff := res.TotalSimSeconds - stepSec; diff < -0.001 || diff > 1 {
		t.Errorf("step seconds %.1f vs total %.1f", stepSec, res.TotalSimSeconds)
	}
	part := res.Steps["partition"]
	if part.SimSeconds < 0.5*res.TotalSimSeconds {
		t.Errorf("partition %.1f s should dominate total %.1f s", part.SimSeconds, res.TotalSimSeconds)
	}
}

// TestDriftGuardNecessary is the drift-guard ablation: on the high-drift
// setting No.3 the guard is what stands between DRAMDig and DRAMA-like
// failure. A large pool and the paper's stop rule stretch the partition
// across drift windows. Each run starts at a drift phase derived from its
// machine seed, (seed mod 24)/24 of a window, as a tool launched at an
// arbitrary moment would, so the 24 contiguous seeds cover the window
// evenly instead of relying on where a run happens to start.
func TestDriftGuardNecessary(t *testing.T) {
	run := func(mseed int64, guard bool) error {
		m, err := machine.NewByNo(3, mseed)
		if err != nil {
			t.Fatal(err)
		}
		m.AdvanceClock(float64(mseed%24) / 24 * m.Controller().Params().DriftStepSeconds * 1e9)
		tool, err := New(m, Config{Seed: 1, MinPoolAddrs: 8192, PaperStop: true, DisableDriftGuard: !guard})
		if err != nil {
			t.Fatal(err)
		}
		res, err := tool.Run()
		if err == nil && !res.Mapping.EquivalentTo(m.Truth()) {
			err = fmt.Errorf("wrong mapping %s", res.Mapping)
		}
		return err
	}
	failures := 0
	for mseed := int64(390); mseed < 414; mseed++ {
		if err := run(mseed, true); err != nil {
			t.Errorf("guarded run failed on machine seed %d: %v", mseed, err)
		}
		if run(mseed, false) != nil {
			failures++
		}
	}
	if failures == 0 {
		t.Error("drift guard disabled yet all runs still succeeded on No.3; the ablation lost its teeth")
	}
}

func TestConfigValidation(t *testing.T) {
	m, _ := machine.NewByNo(1, 1)
	for _, bad := range []Config{
		{Delta: 1.5},
		{Delta: -0.1},
	} {
		if _, err := New(m, bad); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
}

// TestKernelMask checks the Step 3 helper directly on the paper's No.2
// functions.
func TestKernelMask(t *testing.T) {
	m, _ := machine.NewByNo(2, 1)
	tool, _ := New(m, Config{})
	funcs := m.Truth().BankFuncs

	// Safe bits: everything unclassified except the row candidates
	// 18, 19 — i.e. bits 7, 8, 9, 12-17.
	safe := addr.MaskFromBits([]uint{7, 8, 9, 12, 13, 14, 15, 16, 17})
	for _, x := range []uint{18, 19} {
		mu, ok := tool.kernelMask(funcs, x, safe)
		if !ok {
			t.Fatalf("no kernel mask for bit %d", x)
		}
		if mu&(1<<x) == 0 {
			t.Fatalf("mask %#x misses target bit %d", mu, x)
		}
		for _, f := range funcs {
			if addr.Phys(mu).XorFold(f) != 0 {
				t.Fatalf("mask %#x does not preserve function %#x", mu, f)
			}
		}
		if mu&^(safe|1<<x) != 0 {
			t.Fatalf("mask %#x uses unsafe bits", mu)
		}
	}
	// A bank-only bit whose functions cannot be compensated from the
	// safe set: exclude the partners of (17, 21) — then bit 21 has no
	// kernel mask.
	noSafe := addr.MaskFromBits([]uint{7, 8, 9})
	if _, ok := tool.kernelMask(funcs, 21, noSafe); ok {
		t.Error("expected no kernel mask with insufficient safe bits")
	}
}

// TestWidestFuncLowBit covers the empirical-observation helper.
func TestWidestFuncLowBit(t *testing.T) {
	m2, _ := machine.NewByNo(2, 1)
	if l, ok := widestFuncLowBit(m2.Truth().BankFuncs); !ok || l != 7 {
		t.Errorf("No.2 widest low bit = %d, %v; want 7, true", l, ok)
	}
	m8, _ := machine.NewByNo(8, 1)
	if _, ok := widestFuncLowBit(m8.Truth().BankFuncs); ok {
		t.Error("No.8 has only 2-bit functions; no exclusion applies")
	}
}

// TestCustomSingleChannelMachine runs the full pipeline on a synthetic
// single-channel, quad-bank machine — smaller than anything in the paper.
func TestCustomSingleChannelMachine(t *testing.T) {
	def := machine.Definition{
		Name: "tiny", Microarch: "Haswell", CPU: "i3-4130",
		Standard: machineStandardDDR3(), MemBytes: 4 << 30,
		Config:    machineDIMM(1, 1, 1, 8),
		ChipPart:  "MT41K512M8",
		BankFuncs: "(13, 16), (14, 17), (15, 18)",
		RowBits:   "16~31", ColBits: "0~12",
		Vuln: machineInvulnerable(),
	}
	m, err := machine.New(def, 9)
	if err != nil {
		t.Fatal(err)
	}
	tool, err := New(m, Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tool.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Mapping.EquivalentTo(m.Truth()) {
		t.Errorf("custom machine: recovered %s, want %s", res.Mapping, m.Truth())
	}
}
