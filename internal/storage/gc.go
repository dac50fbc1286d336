package storage

import (
	"context"
	"sort"
	"time"

	"dramdig/internal/obs"
)

// SweepResult describes what a single Sweep accomplished.
type SweepResult struct {
	ReclaimedBlobs int
	ReclaimedBytes int64
	Evicted        int
	Compactions    int
	DiskBytes      int64
}

// Sweep runs one garbage-collection pass under a `storage.gc` span:
//
//  1. every live blob for which reclaim(key, age) returns true is
//     deleted (a durable tombstone — phase one of the two-phase delete);
//  2. if the store is over Options.MaxBytes, least-recently-used blobs
//     are evicted;
//  3. dead-heavy segments are compacted, physically reclaiming the
//     space (phase two).
//
// reclaim may be nil, in which case only bound enforcement and
// compaction run. age is the time since the blob was written (or since
// the store was opened, for blobs recovered from disk) — callers use it
// to grace-period blobs that may still be getting referenced.
func (bs *BlobStore) Sweep(ctx context.Context, reclaim func(key string, age time.Duration) bool) (SweepResult, error) {
	_, sp := obs.Start(ctx, "storage.gc")
	res, err := bs.sweep(reclaim)
	sp.SetAttrInt("reclaimed_blobs", int64(res.ReclaimedBlobs))
	sp.SetAttrInt("reclaimed_bytes", res.ReclaimedBytes)
	sp.SetAttrInt("evicted", int64(res.Evicted))
	sp.SetAttrInt("compactions", int64(res.Compactions))
	sp.SetAttrInt("disk_bytes", res.DiskBytes)
	if err != nil {
		sp.SetError(err)
	}
	sp.End()
	return res, err
}

func (bs *BlobStore) sweep(reclaim func(key string, age time.Duration) bool) (SweepResult, error) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	var res SweepResult
	if bs.closed {
		res.DiskBytes = bs.bytes
		return res, nil
	}
	before := bs.stats
	now := time.Now()
	if reclaim != nil {
		var doomed []string
		for key, loc := range bs.index {
			if reclaim(key, now.Sub(loc.at)) {
				doomed = append(doomed, key)
			}
		}
		sort.Strings(doomed)
		for _, key := range doomed {
			size, err := bs.deleteLocked(key)
			if err != nil {
				return res, err
			}
			res.ReclaimedBlobs++
			res.ReclaimedBytes += size
			bs.stats.ReclaimedBlobs++
			bs.stats.ReclaimedBytes += uint64(size)
		}
		if len(doomed) > 0 {
			// Phase one must be durable before compaction removes the
			// records' only other copy.
			if err := bs.syncLocked(); err != nil {
				return res, err
			}
		}
	}
	if bs.opts.MaxBytes > 0 && bs.bytes > bs.opts.MaxBytes {
		if err := bs.enforceBoundLocked(); err != nil {
			return res, err
		}
	}
	// Opportunistic hygiene: rewrite sealed segments that are mostly dead
	// even when no bound is configured.
	if err := bs.compactDeadLocked(); err != nil {
		return res, err
	}
	bs.stats.Sweeps++
	res.Evicted = int(bs.stats.Evicted - before.Evicted)
	res.Compactions = int(bs.stats.Compactions - before.Compactions)
	res.DiskBytes = bs.bytes
	return res, nil
}

// compactDeadLocked rewrites every sealed segment whose live ratio has
// dropped below half.
func (bs *BlobStore) compactDeadLocked() error {
	var victims []*segment
	for _, s := range bs.segs {
		if s == bs.active || s.bytes == 0 {
			continue
		}
		if s.live*2 < s.bytes {
			victims = append(victims, s)
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].id < victims[j].id })
	for _, s := range victims {
		if err := bs.compactSegmentLocked(s); err != nil {
			return err
		}
	}
	return nil
}
