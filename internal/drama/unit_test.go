package drama

import (
	"testing"

	"dramdig/internal/addr"
	"dramdig/internal/machine"
)

func newTool(t testing.TB) (*Tool, *machine.Machine) {
	t.Helper()
	m, err := machine.NewByNo(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	return New(m, Config{Seed: 5}), m
}

func TestSamplePoolProperties(t *testing.T) {
	tool, m := newTool(t)
	pool := tool.samplePool()
	if len(pool) != poolAddrs {
		t.Fatalf("pool size %d, want %d", len(pool), poolAddrs)
	}
	seen := map[addr.Phys]bool{}
	for _, a := range pool {
		if seen[a] {
			t.Fatal("duplicate address in pool")
		}
		seen[a] = true
		if uint64(a)%64 != 0 {
			t.Fatalf("unaligned address %v", a)
		}
		if !m.Pool().Contains(a) {
			t.Fatalf("address %v outside the allocation", a)
		}
	}
}

func TestMaskConstancyTolerance(t *testing.T) {
	tool, _ := newTool(t)
	mask := uint64(1 << 14)
	// A set of 65 members sharing parity 0 on bit 14, with intruders.
	mkSet := func(bad int) []addr.Phys {
		set := make([]addr.Phys, 0, 65)
		for i := 0; i < 65-bad; i++ {
			set = append(set, addr.Phys(i<<20)) // bit 14 clear
		}
		for i := 0; i < bad; i++ {
			set = append(set, addr.Phys(1<<14|i<<20))
		}
		return set
	}
	// allowed = 1 + 65/64 = 2 stray members.
	if !tool.maskConstantOnSets(mask, [][]addr.Phys{mkSet(0)}) {
		t.Error("clean set rejected")
	}
	if !tool.maskConstantOnSets(mask, [][]addr.Phys{mkSet(2)}) {
		t.Error("two strays should be tolerated")
	}
	if tool.maskConstantOnSets(mask, [][]addr.Phys{mkSet(6)}) {
		t.Error("six strays accepted")
	}
	// Any clean set plus one broken set kills the mask.
	if tool.maskConstantOnSets(mask, [][]addr.Phys{mkSet(0), mkSet(6)}) {
		t.Error("broken second set accepted")
	}
}

func TestResultString(t *testing.T) {
	r := &Result{
		Funcs:   []uint64{1 << 6, 1<<14 | 1<<17},
		RowBits: []uint{20, 21, 22},
		ColBits: []uint{0, 1, 2},
	}
	s := r.String()
	for _, want := range []string{"(6)", "(14, 17)", "20~22", "0~2"} {
		if !contains(s, want) {
			t.Errorf("Result.String missing %q: %s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
