package core

import (
	"math/rand"
	"testing"

	"dramdig/internal/addr"
	"dramdig/internal/machine"
	"dramdig/internal/mapping"
)

// synthPiles builds noise-free piles for a mapping: every selected
// address is assigned to its true bank's pile.
func synthPiles(t *testing.T, m *mapping.Mapping, bankBits []uint, extraRow []uint, perBank int) []*pile {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	byBank := map[uint64][]addr.Phys{}
	vary := append(append([]uint(nil), bankBits...), extraRow...)
	for len(byBank) < m.NumBanks() || shortest(byBank, m.NumBanks()) < perBank {
		var p addr.Phys
		p = p.Deposit(vary, rng.Uint64())
		b := m.Decode(p).Bank
		if len(byBank[b]) < perBank {
			byBank[b] = append(byBank[b], p)
		}
	}
	var piles []*pile
	for _, members := range byBank {
		piles = append(piles, &pile{rep: members[0], members: members[1:]})
	}
	return piles
}

func shortest(m map[uint64][]addr.Phys, want int) int {
	if len(m) < want {
		return 0
	}
	min := int(^uint(0) >> 1)
	for _, v := range m {
		if len(v) < min {
			min = len(v)
		}
	}
	return min
}

// TestResolveFuncsOnSyntheticPiles: Algorithm 3 recovers exactly the true
// function span from clean piles, for both disjoint and overlapped
// function structures.
func TestResolveFuncsOnSyntheticPiles(t *testing.T) {
	cases := []struct {
		name     string
		no       int
		bankBits []uint
		extraRow []uint
	}{
		{"No.1-disjoint", 1, []uint{6, 14, 15, 16, 17, 18, 19}, []uint{20, 21, 22, 23, 24}},
		{"No.2-overlapped", 2, []uint{7, 8, 9, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21}, nil},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			m, err := machine.NewByNo(c.no, 1)
			if err != nil {
				t.Fatal(err)
			}
			truth := m.Truth()
			piles := synthPiles(t, truth, c.bankBits, c.extraRow, 32)
			tool, err := New(m, Config{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			funcs, err := tool.resolveFuncs(piles, c.bankBits, truth.NumBanks())
			if err != nil {
				t.Fatal(err)
			}
			got := &mapping.Mapping{BankFuncs: funcs}
			want := &mapping.Mapping{BankFuncs: truth.BankFuncs}
			if got.Canonicalize().FuncString() != want.Canonicalize().FuncString() {
				t.Errorf("resolved %s, want span of %s", got.FuncString(), want.FuncString())
			}
		})
	}
}

// TestResolveFuncsRejectsBadPileCount: piles that cannot be numbered
// injectively (duplicated banks) are rejected.
func TestResolveFuncsRejectsBadPileCount(t *testing.T) {
	m, _ := machine.NewByNo(1, 1)
	truth := m.Truth()
	bankBits := []uint{6, 14, 15, 16, 17, 18, 19}
	piles := synthPiles(t, truth, bankBits, []uint{20, 21}, 16)
	// Duplicate one pile: two piles now share a bank number.
	piles = append(piles, piles[0])
	tool, _ := New(m, Config{Seed: 1})
	if _, err := tool.resolveFuncs(piles, bankBits, truth.NumBanks()); err == nil {
		t.Error("duplicated pile accepted")
	}
}

// TestResolveFuncsTooManyCandidateBits: the enumeration guard trips.
func TestResolveFuncsTooManyCandidateBits(t *testing.T) {
	m, _ := machine.NewByNo(1, 1)
	tool, _ := New(m, Config{Seed: 1})
	wide := make([]uint, 20)
	for i := range wide {
		wide[i] = uint(6 + i)
	}
	if _, err := tool.resolveFuncs(nil, wide, 16); err == nil {
		t.Error("oversized candidate set accepted")
	}
}

// TestSelectionSweepsAllBankPatterns: Algorithm 1's pool hits every bank
// at least once (otherwise partitioning could not find all piles).
func TestSelectionSweepsAllBankPatterns(t *testing.T) {
	m, err := machine.NewByNo(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	tool, _ := New(m, Config{Seed: 2})
	// Drive the real pipeline up to selection via a coarse result built
	// from ground truth.
	truth := m.Truth()
	sel, err := tool.selectAddresses(truthCoarse(truth))
	if err != nil {
		t.Fatal(err)
	}
	banksSeen := map[uint64]bool{}
	for _, p := range sel.pool {
		banksSeen[truth.Decode(p).Bank] = true
	}
	if len(banksSeen) != truth.NumBanks() {
		t.Errorf("selection covers %d of %d banks", len(banksSeen), truth.NumBanks())
	}
	if len(sel.pool) < tool.cfg.MinPoolAddrs {
		t.Errorf("pool %d below minimum %d", len(sel.pool), tool.cfg.MinPoolAddrs)
	}
	// Deduplicated.
	seen := map[addr.Phys]bool{}
	for _, p := range sel.pool {
		if seen[p] {
			t.Fatal("duplicate address in selection")
		}
		seen[p] = true
	}
}

// TestPartitionPurity: with the default noise model and the paper's stop
// rule, Algorithm 2 groups a real selection into piles for at least ¾ of
// the banks. The early stop returns fewer piles by design; its piles are
// checked in TestEarlyStopPilesPure.
func TestPartitionPurity(t *testing.T) {
	m, err := machine.NewByNo(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	tool, err := New(m, Config{Seed: 2, PaperStop: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tool.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Piles < m.Truth().NumBanks()*3/4 {
		t.Errorf("only %d piles of %d banks", res.Piles, m.Truth().NumBanks())
	}
}
