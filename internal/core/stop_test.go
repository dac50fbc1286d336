package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"dramdig/internal/addr"
	"dramdig/internal/machine"
	"dramdig/internal/mapping"
	"dramdig/internal/memctrl"
)

// earlyStopSettings span disjoint and overlapped functions, DDR3 and DDR4,
// quiet desktops and drifting mobile parts.
var earlyStopSettings = []int{1, 2, 6, 7}

// TestEarlyStopPilesPure drives Steps 1–2b on real measurements: the
// partition stops early on truncated piles, and each pile it returns is
// pure against ground truth as Algorithm 3 reads piles — under every
// true bank function, at least pileAgreeFrac of the pile shares the
// representative's parity. A truncated pile holds pileCap members plus
// its representative, so one stranger in 25 passes the bar and two fail
// it.
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
			piles, verified, err := tool.partition(sel.pool, coarse.bankBits, truth.NumBanks())
			if err != nil {
				t.Fatalf("No.%d seed %d: %v", no, mseed, err)
			}
			if len(piles) >= truth.NumBanks()/2 || verified == nil {
				t.Errorf("No.%d seed %d: %d piles of %d banks, verified functions %v; the early stop did not fire", no, mseed, len(piles), truth.NumBanks(), verified)
			}
			for i, p := range piles {
				if len(p.members) != pileCap {
					t.Errorf("No.%d seed %d pile %d: %d members, want a truncated pile of %d", no, mseed, i, len(p.members), pileCap)
				}
				checkPilePure(t, fmt.Sprintf("No.%d seed %d pile %d", no, mseed, i), p, truth.BankFuncs, pileAgreeFrac)
			}
		}
	}
}

// checkPilePure fails the test unless, under every true bank function,
// at least frac of the pile shares the representative's parity.
func checkPilePure(t *testing.T, name string, p *pile, funcs []uint64, frac float64) {
	t.Helper()
	for _, f := range funcs {
		agree := 1 // the representative
		for _, a := range p.members {
			if a.XorFold(f) == p.rep.XorFold(f) {
				agree++
			}
		}
		if n := 1 + len(p.members); float64(agree) < frac*float64(n) {
			t.Errorf("%s: %d of %d addresses agree under %s", name, agree, n, addr.FormatBits(addr.BitsFromMask(f)))
		}
	}
}

// TestPartitionFallsBackToFullScans: with no candidate bits, no
// prediction can verify, so the truncated rounds run out their budget.
// partition must then discard their piles and rerun the rounds uncapped:
// every pile it returns is a full scan's, larger than pileCap and pure,
// and together they reach the paper's stop rule.
func TestPartitionFallsBackToFullScans(t *testing.T) {
	for _, no := range []int{1, 7} {
		m, err := machine.NewByNo(no, 3)
		if err != nil {
			t.Fatal(err)
		}
		truth := m.Truth()
		var fellBack bool
		tool := calibratedTool(t, m, Config{Seed: 3, Logf: func(format string, args ...any) {
			fellBack = fellBack || strings.Contains(format, "rescanning in full")
		}})
		sel, err := tool.selectAddresses(truthCoarse(truth))
		if err != nil {
			t.Fatal(err)
		}
		piles, verified, err := tool.partition(sel.pool, nil, truth.NumBanks())
		if err != nil {
			t.Fatalf("No.%d: %v", no, err)
		}
		if !fellBack {
			t.Errorf("No.%d: partition did not report falling back to full scans", no)
		}
		if verified != nil {
			t.Errorf("No.%d: functions %v verified with no candidate bits", no, verified)
		}
		assigned := 0
		for i, p := range piles {
			assigned += 1 + len(p.members)
			if len(p.members) <= pileCap {
				t.Errorf("No.%d pile %d: %d members, a truncated pile survived the fallback", no, i, len(p.members))
			}
			checkPilePure(t, fmt.Sprintf("No.%d pile %d", no, i), p, truth.BankFuncs, pileAgreeFrac)
		}
		if len(piles) < truth.NumBanks() && float64(assigned) < perThreshold*float64(len(sel.pool)) {
			t.Errorf("No.%d: %d piles hold %d of %d addresses, short of the paper's stop rule", no, len(piles), assigned, len(sel.pool))
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

// TestResolveReusesVerifiedFunctions: when the early stop fired, the
// resolve step returns the functions it verified and leaves the same
// record as running Algorithm 3 afresh on the same piles from the same
// state: equal functions, equal simulated seconds and no measurement.
func TestResolveReusesVerifiedFunctions(t *testing.T) {
	for _, no := range earlyStopSettings {
		for mseed := int64(1); mseed <= 3; mseed++ {
			type outcome struct {
				funcs, verified []uint64
				stats           StepStats
			}
			var got [2]outcome // reused, then fresh
			for i := range got {
				m, err := machine.NewByNo(no, mseed)
				if err != nil {
					t.Fatal(err)
				}
				banks := m.Truth().NumBanks()
				tool := calibratedTool(t, m, Config{Seed: mseed})
				coarse, err := tool.coarseDetect(m.SysInfo())
				if err != nil {
					t.Fatal(err)
				}
				sel, err := tool.selectAddresses(coarse)
				if err != nil {
					t.Fatal(err)
				}
				piles, verified, err := tool.partition(sel.pool, coarse.bankBits, banks)
				if err != nil || verified == nil {
					t.Fatalf("No.%d seed %d: the early stop did not fire (%v)", no, mseed, err)
				}
				clock, meas := m.ClockNs(), tool.measurements()
				var funcs []uint64
				if i == 0 {
					funcs, err = tool.resolve(piles, verified, coarse.bankBits, banks)
				} else {
					funcs, err = tool.resolveFuncs(piles, coarse.bankBits, banks)
				}
				if err != nil {
					t.Fatalf("No.%d seed %d: %v", no, mseed, err)
				}
				got[i] = outcome{funcs, verified, StepStats{
					SimSeconds:   (m.ClockNs() - clock) / 1e9,
					Measurements: tool.measurements() - meas,
				}}
			}
			reused, fresh := got[0], got[1]
			if !slices.Equal(reused.funcs, fresh.funcs) || !slices.Equal(reused.verified, fresh.verified) {
				t.Errorf("No.%d seed %d: reused functions %v, fresh %v", no, mseed, reused.funcs, fresh.funcs)
			}
			if reused.stats != fresh.stats || fresh.stats.SimSeconds == 0 || fresh.stats.Measurements != 0 {
				t.Errorf("No.%d seed %d: reused step %+v, fresh %+v", no, mseed, reused.stats, fresh.stats)
			}
		}
	}
}

// TestFallbackVerifiesItsOwnPiles: when the truncated rounds verify
// nothing, partition discards their piles and rescans in full, and the
// early stop's tally starts afresh with the full scans. Functions the
// early stop then verifies must be Algorithm 3's on the piles partition
// returns. The runs are the noise sweep's at ×6 on No.3
// (eval.ScaleNoise, eval's noise seeds 1, 13 and 14), which fall back; a
// tally still holding the discarded piles verifies functions there that
// the returned piles do not support.
func TestFallbackVerifiesItsOwnPiles(t *testing.T) {
	for _, i := range []int64{1, 13, 14} {
		def, err := machine.ByNo(3)
		if err != nil {
			t.Fatal(err)
		}
		own := def.ParamsTweak
		def.ParamsTweak = func(p *memctrl.Params) {
			if own != nil {
				own(p)
			}
			p.JitterSigmaNs *= 6
			p.OutlierProb = min(1, p.OutlierProb*6)
			p.MeasOutlierProb = min(1, p.MeasOutlierProb*6)
			p.DriftAmpNs *= 6
		}
		m, err := machine.New(def, 8000+i)
		if err != nil {
			t.Fatal(err)
		}
		banks := m.Truth().NumBanks()
		var fellBack bool
		tool := calibratedTool(t, m, Config{Seed: 7919*i + 1, Logf: func(format string, args ...any) {
			fellBack = fellBack || strings.Contains(format, "rescanning in full")
		}})
		coarse, err := tool.coarseDetect(m.SysInfo())
		if err != nil {
			t.Fatal(err)
		}
		sel, err := tool.selectAddresses(coarse)
		if err != nil {
			t.Fatal(err)
		}
		piles, verified, err := tool.partition(sel.pool, coarse.bankBits, banks)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if !fellBack {
			t.Fatalf("seed %d: partition did not fall back to full scans", i)
		}
		if verified == nil {
			continue
		}
		if fresh, err := tool.resolveFuncs(piles, coarse.bankBits, banks); err != nil || !slices.Equal(verified, fresh) {
			t.Errorf("seed %d: verified %v on %d piles, where Algorithm 3 gives %v (%v)", i, verified, len(piles), fresh, err)
		}
	}
}
