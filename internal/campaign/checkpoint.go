// Campaign checkpoints: the record a durable scheduler needs to resume
// an interrupted campaign without redoing finished work. After every
// successfully completed job the engine reports the cumulative
// checkpoint — the set of completed job indexes with the deterministic
// per-(job, attempt) tool seeds that produced them — and a later run
// given that checkpoint (Config.Resume) skips those jobs, restoring
// their outcomes through Config.Restore (typically the content-addressed
// result store) instead of re-running the pipeline. Jobs not in the
// checkpoint re-run with the same derived seeds, so a resumed campaign's
// report is identical to an uninterrupted run's.

package campaign

import (
	"sync"
)

// JobCheckpoint records one completed job.
type JobCheckpoint struct {
	// Index is the job's position in the campaign's spec slice — the
	// resume key.
	Index int `json:"index"`
	// Name and MachineFingerprint identify the machine; the fingerprint
	// is the content address a restore can look results up by.
	Name               string `json:"name"`
	MachineFingerprint string `json:"machine_fingerprint"`
	// ToolSeed is the derived seed of the successful attempt (0 for
	// cache-served outcomes). It is a function of (master seed, index,
	// attempt), which is what makes replaying a checkpoint sound.
	ToolSeed int64 `json:"tool_seed,omitempty"`
	// Attempts, Match, SimSeconds and MappingFingerprint mirror the
	// completed JobResult, so a restored job reports the same numbers.
	Attempts           int     `json:"attempts,omitempty"`
	Match              bool    `json:"match,omitempty"`
	SimSeconds         float64 `json:"sim_s,omitempty"`
	MappingFingerprint string  `json:"mapping_fingerprint,omitempty"`
}

// Checkpoint is the cumulative completion record of one campaign run.
type Checkpoint struct {
	// Seed is the campaign's master tool seed. Resume refuses a
	// checkpoint taken under a different seed — its jobs would not be
	// the ones this campaign computes.
	Seed int64 `json:"seed"`
	// Jobs lists completed jobs in completion order.
	Jobs []JobCheckpoint `json:"jobs"`
}

// Lookup returns the checkpoint entry for a job index.
func (cp *Checkpoint) Lookup(index int) (JobCheckpoint, bool) {
	if cp == nil {
		return JobCheckpoint{}, false
	}
	for _, jc := range cp.Jobs {
		if jc.Index == index {
			return jc, true
		}
	}
	return JobCheckpoint{}, false
}

// checkpointer accumulates per-job completions and hands the caller a
// snapshot after each one. The callback runs under the checkpointer's
// mutex: invocations are serialized and each sees a strictly growing
// job list, so callers can append to a WAL without their own locking.
type checkpointer struct {
	mu sync.Mutex
	cp Checkpoint
	fn func(Checkpoint)
}

func newCheckpointer(seed int64, fn func(Checkpoint)) *checkpointer {
	if fn == nil {
		return nil
	}
	return &checkpointer{cp: Checkpoint{Seed: seed}, fn: fn}
}

func (c *checkpointer) add(jc JobCheckpoint) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cp.Jobs = append(c.cp.Jobs, jc)
	snap := c.cp
	snap.Jobs = append([]JobCheckpoint(nil), c.cp.Jobs...)
	c.fn(snap)
}

// jobCheckpoint distills a finished JobResult into its checkpoint entry.
func jobCheckpoint(idx int, jr JobResult, toolSeed int64) JobCheckpoint {
	return JobCheckpoint{
		Index:              idx,
		Name:               jr.Name,
		MachineFingerprint: jr.MachineFingerprint,
		ToolSeed:           toolSeed,
		Attempts:           jr.Attempts,
		Match:              jr.Match,
		SimSeconds:         jr.simSeconds(),
		MappingFingerprint: jr.Fingerprint,
	}
}

func (jr JobResult) simSeconds() float64 {
	if jr.Result == nil {
		return 0
	}
	return jr.Result.TotalSimSeconds
}
