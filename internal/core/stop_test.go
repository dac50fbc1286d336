package core

import (
	"testing"

	"dramdig/internal/addr"
	"dramdig/internal/machine"
	"dramdig/internal/mapping"
)

// earlyStopSettings span disjoint and overlapped functions, DDR3 and DDR4,
// quiet desktops and drifting mobile parts.
var earlyStopSettings = []int{1, 2, 6, 7}

// TestEarlyStopPilesPure drives Steps 1–2b on real measurements: the
// partition stops early, and each pile it returns is pure against ground
// truth as Algorithm 3 reads piles — under every true bank function, at
// least PileAgreeFrac of the pile shares the representative's parity.
// (Strays are false conflicts, so they grow with the scan: the first
// piles, which scan the whole pool, collect the most, a few percent on
// the noisy settings.)
func TestEarlyStopPilesPure(t *testing.T) {
	for _, no := range earlyStopSettings {
		for mseed := int64(1); mseed <= 3; mseed++ {
			m, err := machine.NewByNo(no, mseed)
			if err != nil {
				t.Fatal(err)
			}
			truth := m.Truth()
			tool := calibratedTool(t, m, Config{Seed: mseed})
			coarse, err := tool.coarseDetect(m.SysInfo())
			if err != nil {
				t.Fatal(err)
			}
			sel, err := tool.selectAddresses(coarse)
			if err != nil {
				t.Fatal(err)
			}
			piles, err := tool.partition(sel.pool, coarse.bankBits, truth.NumBanks())
			if err != nil {
				t.Fatalf("No.%d seed %d: %v", no, mseed, err)
			}
			if len(piles) >= truth.NumBanks()/2 {
				t.Errorf("No.%d seed %d: %d piles of %d banks; the early stop did not fire", no, mseed, len(piles), truth.NumBanks())
			}
			for i, p := range piles {
				for _, f := range truth.BankFuncs {
					agree := 1 // the representative
					for _, a := range p.members {
						if a.XorFold(f) == p.rep.XorFold(f) {
							agree++
						}
					}
					if n := 1 + len(p.members); float64(agree) < tool.cfg.PileAgreeFrac*float64(n) {
						t.Errorf("No.%d seed %d pile %d: %d of %d addresses agree under %s",
							no, mseed, i, agree, n, addr.FormatBits(addr.BitsFromMask(f)))
					}
				}
			}
		}
	}
}

// TestPredictionHoldsRefusesWrongFunctions: the early stop's check
// accepts the true functions and refuses a set with one bit flipped in
// one function, whose span is wrong.
func TestPredictionHoldsRefusesWrongFunctions(t *testing.T) {
	for _, no := range earlyStopSettings {
		for mseed := int64(1); mseed <= 5; mseed++ {
			m, err := machine.NewByNo(no, mseed)
			if err != nil {
				t.Fatal(err)
			}
			truth := m.Truth()
			tool := calibratedTool(t, m, Config{Seed: mseed})
			coarse := truthCoarse(truth)
			sel, err := tool.selectAddresses(coarse)
			if err != nil {
				t.Fatal(err)
			}
			holds, err := tool.predictionHolds(truth.BankFuncs, sel.pool, sel.pool)
			if err != nil || !holds {
				t.Errorf("No.%d seed %d: true functions refused (%v)", no, mseed, err)
			}
			// Flip a candidate bit in one function; the set stays
			// independent but its span is not the truth's.
			wrong := append([]uint64(nil), truth.BankFuncs...)
			i := int(mseed) % len(wrong)
			wrong[i] ^= 1 << coarse.bankBits[int(mseed)%len(coarse.bankBits)]
			if wrong[i] == 0 || (&mapping.Mapping{BankFuncs: wrong}).EquivalentTo(&mapping.Mapping{BankFuncs: truth.BankFuncs}) {
				t.Fatalf("No.%d seed %d: perturbation %s is not wrong", no, mseed, addr.FormatBits(addr.BitsFromMask(wrong[i])))
			}
			holds, err = tool.predictionHolds(wrong, sel.pool, sel.pool)
			if err != nil || holds {
				t.Errorf("No.%d seed %d: wrong functions %s accepted (%v)", no, mseed,
					(&mapping.Mapping{BankFuncs: wrong}).FuncString(), err)
			}
		}
	}
}
