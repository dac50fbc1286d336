package core

import (
	"strings"
	"testing"

	"dramdig/internal/alloc"
	"dramdig/internal/dram"
	"dramdig/internal/machine"
	"dramdig/internal/memctrl"
	"dramdig/internal/specs"
	"dramdig/internal/sysinfo"
)

// fragTarget wraps a machine with a fragmented allocation, to exercise
// Algorithm 1's contiguity-retry path (the paper's page_miss loop).
type fragTarget struct {
	*machine.Machine
	pool *alloc.Pool
}

func (f *fragTarget) Pool() *alloc.Pool { return f.pool }

// TestFragmentedScatterStillWorks: holes in the scattered chunks (the
// default allocation) must not break the pipeline — Algorithm 1 retries
// until it finds a complete range inside the primary chunk.
func TestFragmentedScatterStillWorks(t *testing.T) {
	m, err := machine.NewByNo(1, 71)
	if err != nil {
		t.Fatal(err)
	}
	cfg := alloc.DefaultConfig(m.SysInfo().MemBytes)
	cfg.HoleProb = 0.15 // much holier than the default 0.02
	pool, err := alloc.NewPool(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	target := &fragTarget{Machine: m, pool: pool}
	tool, err := New(target, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tool.Run()
	if err != nil {
		t.Fatalf("pipeline failed on fragmented allocation: %v", err)
	}
	if !res.Mapping.EquivalentTo(m.Truth()) {
		t.Errorf("wrong mapping: %s", res.Mapping)
	}
}

// TestNoChannelFailsCleanly: a machine without a timing channel (e.g.
// closed-page) must yield a calibration error, not a bogus mapping.
func TestNoChannelFailsCleanly(t *testing.T) {
	def, _ := machine.ByNo(1)
	def.ParamsTweak = func(p *memctrl.Params) { p.Policy = memctrl.ClosedPage }
	m, err := machine.New(def, 5)
	if err != nil {
		t.Fatal(err)
	}
	tool, err := New(m, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = tool.Run()
	if err == nil {
		t.Fatal("closed-page machine produced a mapping from a nonexistent channel")
	}
	if !strings.Contains(err.Error(), "calibration") {
		t.Errorf("unexpected failure mode: %v", err)
	}
}

// TestWrongBankCountFails: lying system information (wrong #banks) must
// surface as an error somewhere in the pipeline rather than a silently
// wrong mapping.
func TestWrongBankCountFails(t *testing.T) {
	def, _ := machine.ByNo(1)
	// Claim 2 ranks per DIMM while the mapping provides functions for 1:
	// machine.New validates this consistency, so the lie must be told
	// at a level below — emulate by wrapping SysInfo.
	m, err := machine.New(def, 9)
	if err != nil {
		t.Fatal(err)
	}
	lied := &lyingTarget{Machine: m}
	tool, err := New(lied, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := tool.Run(); err == nil {
		// A doubled bank count cannot be satisfied: partitioning finds
		// only half the piles, or function resolution fails.
		t.Fatalf("pipeline accepted impossible bank count, returned %s", res.Mapping)
	}
}

// lyingTarget doubles the advertised rank count.
type lyingTarget struct {
	*machine.Machine
}

func (l *lyingTarget) SysInfo() sysinfo.Info {
	info := l.Machine.SysInfo()
	info.Config.RanksPerDIMM *= 2
	info.MemBytes *= 2 // keep PhysBits consistent with the claimed banks
	return info
}

// TestTinyPoolFails: an allocation too small for Algorithm 1 must fail
// with a selection error.
func TestTinyPoolFails(t *testing.T) {
	m, err := machine.NewByNo(1, 31)
	if err != nil {
		t.Fatal(err)
	}
	cfg := alloc.Config{
		MemBytes:     m.SysInfo().MemBytes,
		PrimaryBytes: 256 << 10, // far below the bank-bit range span
	}
	pool, err := alloc.NewPool(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	target := &fragTarget{Machine: m, pool: pool}
	tool, err := New(target, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tool.Run(); err == nil {
		t.Fatal("256 KiB allocation should not support bank-range selection")
	}
}

// TestSpecMismatchDetected: a chip spec disagreeing with reality is
// caught by Step 3's counting checks.
func TestSpecMismatchDetected(t *testing.T) {
	m, err := machine.NewByNo(4, 13)
	if err != nil {
		t.Fatal(err)
	}
	wrongChip, err := specs.Lookup("MT41K256M8") // 15 row bits; machine has 16
	if err != nil {
		t.Fatal(err)
	}
	target := &wrongSpecTarget{Machine: m, chip: wrongChip}
	tool, err := New(target, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := tool.Run(); err == nil {
		t.Fatalf("wrong chip spec accepted, returned %s", res.Mapping)
	}
}

type wrongSpecTarget struct {
	*machine.Machine
	chip specs.ChipSpec
}

func (w *wrongSpecTarget) SysInfo() sysinfo.Info {
	info := w.Machine.SysInfo()
	info.Chip = w.chip
	return info
}

// TestDRAMInvulnerableStillRecovers: rowhammer vulnerability is
// irrelevant to the timing channel; mapping recovery works on immune
// devices.
func TestDRAMInvulnerableStillRecovers(t *testing.T) {
	def, _ := machine.ByNo(8)
	def.Vuln = dram.Invulnerable
	m, err := machine.New(def, 77)
	if err != nil {
		t.Fatal(err)
	}
	tool, _ := New(m, Config{Seed: 3})
	res, err := tool.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Mapping.EquivalentTo(m.Truth()) {
		t.Error("wrong mapping on invulnerable device")
	}
}
