// Step 2b of DRAMDig: partitioning the selected addresses into same-bank
// piles (paper Algorithm 2).
//
// A random representative p is measured against every remaining selected
// address; the conflicting ones (SBDR with p) form p's pile. A pile is
// accepted when its size is within δ of the expected pool/#banks — the
// tolerance absorbs measurement noise and the few same-bank addresses
// that share p's row (which measure low and legitimately stay out of the
// pile). Partitioning stops once at least per_threshold of the pool has
// been assigned.
//
// Each membership decision uses a median of three shorter measurements:
// a single whole-measurement outlier (DVFS, preemption) cannot flip the
// decision, which is the robustness DRAMDig needs on mobile parts.

package core

import (
	"fmt"

	"dramdig/internal/addr"
)

// pile is one same-bank address group.
type pile struct {
	rep     addr.Phys
	members []addr.Phys // excludes rep
}

// partition runs Algorithm 2 over the selected pool.
func (t *Tool) partition(pool []addr.Phys, banks int) ([]*pile, error) {
	poolSz := len(pool)
	if poolSz < 2*banks {
		return nil, fmt.Errorf("pool of %d addresses too small for %d banks", poolSz, banks)
	}
	pileSz := float64(poolSz) / float64(banks)
	lo := (1 - t.cfg.Delta) * pileSz
	hi := (1 + t.cfg.Delta) * pileSz
	stopRemaining := int((1 - t.cfg.PerThreshold) * float64(poolSz))

	remaining := append([]addr.Phys(nil), pool...)
	var piles []*pile
	maxIters := t.cfg.MaxPartitionIters * banks
	for iter := 0; iter < maxIters; iter++ {
		if len(remaining) <= stopRemaining || len(piles) == banks {
			break
		}
		if _, err := t.driftGuard(false); err != nil {
			return nil, err
		}
		// Randomly select the round's representative.
		ri := t.rng.Intn(len(remaining))
		p := remaining[ri]
		var members, rest []addr.Phys
		for i, q := range remaining {
			// The scan is the pipeline's hottest measurement loop —
			// millions of samples on big settings — so cancellation is
			// polled inside it, not just per round.
			if i&63 == 0 {
				if err := t.interrupted(); err != nil {
					return nil, err
				}
			}
			if i == ri {
				continue
			}
			if t.pmeter.IsConflict(p, q) {
				members = append(members, q)
			} else {
				rest = append(rest, q)
			}
		}
		// A drift step mid-scan silently corrupts the whole scan;
		// verify the sentinels before trusting it.
		moved, err := t.driftGuard(true)
		if err != nil {
			return nil, err
		}
		if moved {
			continue
		}
		sz := float64(len(members)) + 1 // rep included in pile size
		if sz < lo || sz > hi {
			// Noise-corrupted round: keep everything and retry
			// with another representative.
			continue
		}
		piles = append(piles, &pile{rep: p, members: members})
		remaining = rest
	}
	if len(piles) == 0 {
		return nil, fmt.Errorf("no pile reached size %.0f±%.0f%%; noise too high or wrong bank count",
			pileSz, t.cfg.Delta*100)
	}
	done := poolSz - len(remaining)
	if float64(done) < t.cfg.PerThreshold*float64(poolSz) && len(piles) < banks {
		return nil, fmt.Errorf("partition stalled: %d/%d addresses in %d piles (want %d banks)",
			done, poolSz, len(piles), banks)
	}
	return piles, nil
}
