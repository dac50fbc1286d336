package machine

import (
	"math/rand"
	"strings"
	"testing"

	"dramdig/internal/memctrl"
)

// TestGenerateDefinitionAlwaysValid: every generated definition builds a
// machine whose ground truth validates and whose spec counts line up —
// the invariants DRAMDig's Step 3 depends on.
func TestGenerateDefinitionAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	families := map[string]int{}
	for i := 0; i < 60; i++ {
		def, err := GenerateDefinition(rng)
		if err != nil {
			t.Fatalf("generation %d: %v", i, err)
		}
		switch {
		case strings.Contains(def.Name, "disjoint"):
			families["disjoint"]++
		case strings.Contains(def.Name, "channel"):
			families["channel"]++
		case strings.Contains(def.Name, "wide"):
			families["wide"]++
		default:
			t.Fatalf("unknown family in %q", def.Name)
		}
		m, err := New(def, int64(i))
		if err != nil {
			t.Fatalf("build %s: %v", def.Name, err)
		}
		truth := m.Truth()
		if err := truth.Validate(); err != nil {
			t.Fatalf("%s: invalid ground truth: %v", def.Name, err)
		}
		info := m.SysInfo()
		if got, want := len(truth.RowBits), info.Chip.PhysRowBits(); got != want {
			t.Fatalf("%s: %d row bits vs spec %d", def.Name, got, want)
		}
		if got, want := len(truth.ColBits), info.Chip.PhysColBits(); got != want {
			t.Fatalf("%s: %d col bits vs spec %d", def.Name, got, want)
		}
		if truth.NumBanks() != info.TotalBanks() {
			t.Fatalf("%s: bank mismatch", def.Name)
		}
	}
	for _, f := range []string{"disjoint", "channel", "wide"} {
		if families[f] == 0 {
			t.Errorf("family %s never generated in 60 draws", f)
		}
	}
}

// TestNewRejectsBrokenDefinitions covers the constructor's validation
// paths.
func TestNewRejectsBrokenDefinitions(t *testing.T) {
	base, _ := ByNo(1)

	bad := base
	bad.ChipPart = "NOPE"
	if _, err := New(bad, 1); err == nil {
		t.Error("unknown chip part accepted")
	}

	bad = base
	bad.BankFuncs = "(x)"
	if _, err := New(bad, 1); err == nil {
		t.Error("unparsable functions accepted")
	}

	bad = base
	bad.RowBits = "zzz"
	if _, err := New(bad, 1); err == nil {
		t.Error("unparsable row bits accepted")
	}

	bad = base
	bad.ColBits = "5~1"
	if _, err := New(bad, 1); err == nil {
		t.Error("inverted column range accepted")
	}

	bad = base
	bad.Config.Channels = 4 // 32 banks claimed, 4 functions provided
	bad.MemBytes = base.MemBytes
	if _, err := New(bad, 1); err == nil {
		t.Error("bank count inconsistent with functions accepted")
	}

	bad = base
	bad.Vuln.WeakRowFrac = 2
	if _, err := New(bad, 1); err == nil {
		t.Error("invalid vulnerability profile accepted")
	}

	bad = base
	bad.ParamsTweak = func(p *memctrl.Params) { p.RowHitNs = -1 }
	if _, err := New(bad, 1); err == nil {
		t.Error("invalid timing parameters accepted")
	}
}
