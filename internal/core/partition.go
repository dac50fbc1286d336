// Step 2b of DRAMDig: partitioning the selected addresses into same-bank
// piles (paper Algorithm 2).
//
// A random representative p is measured against every remaining selected
// address; the conflicting ones (SBDR with p) form p's pile. A pile is
// accepted when its size is within δ of the expected pool/#banks — the
// tolerance absorbs measurement noise and the few same-bank addresses
// that share p's row (which measure low and legitimately stay out of the
// pile). Each membership decision takes up to three shorter
// measurements and admits q only when all three read high; the first
// low one ends it (timing.Meter.IsConflictUnanimous). Whole-measurement
// outliers (DVFS, preemption) only add latency, and p meets a
// non-conflicting address (#banks − 1)/#banks of the time, so a false
// high is the error that fills a pile with strangers: a majority vote
// admits one at about 3p² per pair, the unanimous vote at p³. A false
// low only leaves a member out, which the size tolerance absorbs. That
// is the robustness DRAMDig needs on mobile parts.
//
// The paper stops once at least per_threshold of the pool has been
// assigned. The bank functions are linear, though, and Algorithm 1's pool
// is a full cube over the widened bits, so every pile is a coset of one
// kernel and Algorithm 3 resolves the functions from two clean piles.
// Partitioning therefore stops early once a verified prediction holds:
// after the 2nd, 4th, 8th … accepted pile the functions are resolved from
// the piles so far, and pairs of unassigned addresses they predict to
// share a bank are measured. A wrong function span puts at most half of
// its predicted same-bank pairs in one bank, so it cannot reach the
// (1 − δ) conflict bar. Each accepted pile is scored for Algorithm 3
// once, into a tally the early stop resolves from, and functions it
// verifies are the resolve step's result (see resolve).
//
// Algorithm 3 reads a pile only through the masks constant on it, so a
// pile needs just enough members to span its coset, not the whole bank.
// By default the pool is therefore shuffled once, and each round scans
// the remaining addresses in that order until the pile holds pileCap
// members. The round's pile size is extrapolated from the share of the
// scanned addresses that joined, and the δ bounds apply to that. Only the
// pile's members leave the pool. A later representative from an earlier
// pile's bank scans a prefix that pile has emptied of its bank, so its
// extrapolated size falls short and the round is retried. When
// truncatedRounds × #banks rounds verify no prediction, the piles are
// discarded and the same rounds rerun uncapped: full scans, each over
// all that remains, which end by the paper's rule when no early stop
// fires. Config.PaperStop runs only the uncapped rounds, without the
// early stop.

package core

import (
	"fmt"
	"slices"

	"dramdig/internal/addr"
)

// pile is one same-bank address group.
type pile struct {
	rep     addr.Phys
	members []addr.Phys // excludes rep
}

// The early stop's constants, chosen with the noise sweep
// (eval.NoiseSweep) rather than at the default noise, where every choice
// recovers every machine.
const (
	// verifyFromPiles is the pile count at which the early stop is
	// first tried; it is retried at every doubling.
	verifyFromPiles = 2
	// verifyPairs is the number of predicted same-bank pairs measured
	// per try.
	verifyPairs = 32
	// pileCap is the member count at which a truncated round stops
	// scanning. Algorithm 3 reads a pile only through the masks constant
	// on it, so the members need only span the pile's coset of the
	// functions' kernel, of dimension 3 on No.1 and 8 on No.6.
	pileCap = 24
	// truncatedRounds bounds the truncated rounds, as a multiple of the
	// bank count, before partition falls back to full scans.
	truncatedRounds = 4
)

// The paper's Algorithm 2 parameters besides δ (Config.Delta).
const (
	// perThreshold is the paper's stop rule: the full-scan rounds end
	// once this fraction of the pool sits in piles, which a run reaches
	// only under PaperStop or when no early stop verifies. It is typed
	// so that 1 − perThreshold is the float64 difference, not the exact
	// 0.15.
	perThreshold float64 = 0.85
	// fullScanRounds bounds the full-scan rounds, as a multiple of the
	// bank count.
	fullScanRounds = 8
)

// partition runs Algorithm 2 over the selected pool; bankBits are the
// candidate bits Algorithm 3 resolves the early stop's functions over.
// By default it first builds truncated piles and keeps them only when
// the early stop verifies them; otherwise, and always under PaperStop,
// it scans in full. When the early stop fired, it also returns the
// functions it verified on the returned piles.
func (t *Tool) partition(pool []addr.Phys, bankBits []uint, banks int) ([]*pile, []uint64, error) {
	if len(pool) < 2*banks {
		return nil, nil, fmt.Errorf("pool of %d addresses too small for %d banks", len(pool), banks)
	}
	if t.cfg.PaperStop {
		return t.partitionRounds(pool, nil, banks, 0, fullScanRounds*banks)
	}
	// The early stop scores each accepted pile once, into one tally.
	// With too many candidate bits to enumerate there is none, and no
	// early stop: Algorithm 3 refuses those bits in the resolve step.
	tl, _ := newTally(bankBits, pileAgreeFrac)
	piles, verified, err := t.partitionRounds(pool, tl, banks, pileCap, truncatedRounds*banks)
	if piles != nil || err != nil {
		return piles, verified, err
	}
	t.logf("partition: no prediction verified from truncated piles; rescanning in full")
	if tl != nil {
		tl.reset()
	}
	return t.partitionRounds(pool, tl, banks, 0, fullScanRounds*banks)
}

// partitionRounds runs up to maxRounds of Algorithm 2's rounds over the
// pool. A round measures a random representative against the remaining
// addresses in order. With memberCap > 0 that order is one shuffle of
// the pool, each scan stops once the pile holds memberCap members, and
// the rounds return piles only when the early stop verifies them, nil
// otherwise. With memberCap 0 every round scans all that remains, and
// the rounds end by the paper's rule when no early stop fires. Each
// accepted pile is added to tl, which must hold no other; the early
// stop runs only with a tally, and its verified functions are returned
// with the piles.
func (t *Tool) partitionRounds(pool []addr.Phys, tl *tally, banks, memberCap, maxRounds int) ([]*pile, []uint64, error) {
	poolSz := len(pool)
	pileSz := float64(poolSz) / float64(banks)
	lo := (1 - t.cfg.Delta) * pileSz
	hi := (1 + t.cfg.Delta) * pileSz
	stopRemaining := int((1 - perThreshold) * float64(poolSz))

	remaining := slices.Clone(pool)
	if memberCap > 0 {
		t.rng.Shuffle(len(remaining), func(i, j int) { remaining[i], remaining[j] = remaining[j], remaining[i] })
	}
	var piles []*pile
	for round := 0; round < maxRounds; round++ {
		if len(remaining) <= stopRemaining || len(piles) == banks {
			break
		}
		if _, err := t.driftGuard(false); err != nil {
			return nil, nil, err
		}
		// Randomly select the round's representative.
		ri := t.rng.Intn(len(remaining))
		p := remaining[ri]
		var members []addr.Phys
		scanned := 0
		for i, q := range remaining {
			if memberCap > 0 && len(members) == memberCap {
				break
			}
			// The scan is the pipeline's hottest measurement loop —
			// millions of samples on big settings — so cancellation is
			// polled inside it, not just per round.
			if i&63 == 0 {
				if err := t.interrupted(); err != nil {
					return nil, nil, err
				}
			}
			if i == ri {
				continue
			}
			scanned++
			if t.pmeter.IsConflictUnanimous(p, q) {
				members = append(members, q)
			}
		}
		// A drift step mid-scan silently corrupts the whole scan;
		// verify the sentinels before trusting it.
		moved, err := t.driftGuard(true)
		if err != nil {
			return nil, nil, err
		}
		if moved {
			continue
		}
		sz := float64(len(members)) + 1 // rep included in pile size
		if memberCap > 0 && len(members) == memberCap {
			// A truncated scan: extrapolate the pile over all that
			// remains from the share of the scanned addresses it took.
			sz = float64(len(members))/float64(scanned)*float64(len(remaining)-1) + 1
		}
		if sz < lo || sz > hi {
			// Noise-corrupted round: keep everything and retry
			// with another representative.
			continue
		}
		piles = append(piles, &pile{rep: p, members: members})
		remaining = withoutPile(remaining, ri, members)
		if tl == nil {
			continue
		}
		tl.add(piles[len(piles)-1])
		if n := len(piles); n < verifyFromPiles || n&(n-1) != 0 {
			continue
		}
		funcs, err := t.resolveTallied(tl, piles, banks)
		if err != nil {
			continue
		}
		holds, err := t.predictionHolds(funcs, pool, remaining)
		if err != nil {
			return nil, nil, err
		}
		if holds {
			t.logf("partition: functions from %d piles verified, stopping early", len(piles))
			return piles, funcs, nil
		}
	}
	if memberCap > 0 {
		return nil, nil, nil
	}
	if len(piles) == 0 {
		return nil, nil, fmt.Errorf("no pile reached size %.0f±%.0f%%; noise too high or wrong bank count",
			pileSz, t.cfg.Delta*100)
	}
	done := poolSz - len(remaining)
	if float64(done) < perThreshold*float64(poolSz) && len(piles) < banks {
		return nil, nil, fmt.Errorf("partition stalled: %d/%d addresses in %d piles (want %d banks)",
			done, poolSz, len(piles), banks)
	}
	return piles, nil, nil
}

// withoutPile removes from remaining, in place, the representative at
// index ri and the members, which a round collects in scan order.
func withoutPile(remaining []addr.Phys, ri int, members []addr.Phys) []addr.Phys {
	rest := remaining[:0]
	for i, q := range remaining {
		if i == ri {
			continue
		}
		if len(members) > 0 && q == members[0] {
			members = members[1:]
			continue
		}
		rest = append(rest, q)
	}
	return rest
}

// predictionHolds verifies bank functions by measurement. It draws
// verifyPairs addresses from outside (none of them in a pile yet), pairs
// each with a pool address the functions put in the same bank, and
// measures the pairs with the partition meter. The prediction holds when
// at least (1 − δ) of them conflict — a few same-bank pairs share a row
// and legitimately measure low — and the forced drift check afterwards
// did not re-calibrate.
func (t *Tool) predictionHolds(funcs []uint64, pool, outside []addr.Phys) (bool, error) {
	if len(outside) == 0 {
		return false, nil
	}
	// A stable counting sort of the pool by bank: bank b's addresses,
	// in pool order, are byBank[start[b]:start[b+1]].
	bank := make([]uint32, len(pool))
	start := make([]int, 1<<len(funcs)+1)
	for i, a := range pool {
		bank[i] = uint32(bankOf(a, funcs))
		start[bank[i]+1]++
	}
	for b := 1; b < len(start); b++ {
		start[b] += start[b-1]
	}
	byBank := make([]addr.Phys, len(pool))
	next := slices.Clone(start)
	for i, a := range pool {
		byBank[next[bank[i]]] = a
		next[bank[i]]++
	}
	conflicts := 0
	for i := 0; i < verifyPairs; i++ {
		if err := t.interrupted(); err != nil {
			return false, err
		}
		a := outside[t.rng.Intn(len(outside))]
		k := bankOf(a, funcs)
		same := byBank[start[k]:start[k+1]]
		if len(same) < 2 {
			return false, nil
		}
		// A uniform draw among the others: a appears once in the pool.
		b := same[t.rng.Intn(len(same)-1)]
		if b == a {
			b = same[len(same)-1]
		}
		if t.pmeter.IsConflict(a, b) {
			conflicts++
		}
	}
	moved, err := t.driftGuard(true)
	if err != nil || moved {
		return false, err
	}
	return float64(conflicts) >= (1-t.cfg.Delta)*verifyPairs, nil
}

// bankOf numbers a's bank under funcs: bit i is function i's parity.
func bankOf(a addr.Phys, funcs []uint64) uint64 {
	var num uint64
	for i, f := range funcs {
		num |= a.XorFold(f) << uint(i)
	}
	return num
}
