package campaign

import (
	"context"
	"sync"
	"testing"

	"dramdig/internal/core"
)

// TestCheckpointEmission: every successful job lands in the cumulative
// checkpoint exactly once, with its deterministic tool seed, and each
// OnCheckpoint call extends the previous one.
func TestCheckpointEmission(t *testing.T) {
	specs := PaperSpecs(7)[:3]
	var mu sync.Mutex
	var last Checkpoint
	var calls int
	rep, err := Run(context.Background(), specs, Config{
		Workers: 2,
		Seed:    7,
		OnCheckpoint: func(cp Checkpoint) {
			mu.Lock()
			defer mu.Unlock()
			if len(cp.Jobs) != calls+1 {
				t.Errorf("checkpoint %d has %d jobs, want %d", calls, len(cp.Jobs), calls+1)
			}
			calls++
			last = cp
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Succeeded != len(specs) {
		t.Fatalf("campaign: %d/%d succeeded", rep.Succeeded, rep.Total)
	}
	if calls != len(specs) || len(last.Jobs) != len(specs) {
		t.Fatalf("%d checkpoint calls, final has %d jobs, want %d", calls, len(last.Jobs), len(specs))
	}
	if last.Seed != 7 {
		t.Errorf("checkpoint seed %d, want 7", last.Seed)
	}
	seen := map[int]bool{}
	for _, jc := range last.Jobs {
		if seen[jc.Index] {
			t.Errorf("job %d checkpointed twice", jc.Index)
		}
		seen[jc.Index] = true
		jr := rep.Jobs[jc.Index]
		if jc.MachineFingerprint != jr.MachineFingerprint || jc.MappingFingerprint != jr.Fingerprint {
			t.Errorf("checkpoint %d fingerprints diverge from the report", jc.Index)
		}
		// The recorded seed is the deterministic derivation for the
		// successful attempt.
		want := int64(7) + int64(jc.Index)*7919 + int64(jc.Attempts-1)*104729
		if jc.ToolSeed != want {
			t.Errorf("job %d tool seed %d, want %d", jc.Index, jc.ToolSeed, want)
		}
	}
}

// TestCheckpointResume: a campaign resumed from a checkpoint restores
// the recorded jobs through Restore (no pipeline run) and re-executes
// only the rest, ending with a report identical to an uninterrupted run.
func TestCheckpointResume(t *testing.T) {
	specs := PaperSpecs(11)[:3]
	full, err := Run(context.Background(), specs, Config{Workers: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if full.Succeeded != 3 {
		t.Fatalf("baseline: %d/3 succeeded", full.Succeeded)
	}

	// Pretend jobs 0 and 2 completed before a crash; keep their results
	// around the way a result store would.
	cp := &Checkpoint{Seed: 11}
	kept := map[int]*core.Result{}
	for _, idx := range []int{0, 2} {
		jr := full.Jobs[idx]
		kept[idx] = jr.Result
		cp.Jobs = append(cp.Jobs, jobCheckpoint(idx, jr, 0))
	}

	var restored, executed []int
	var mu sync.Mutex
	rep, err := Run(context.Background(), specs, Config{
		Workers: 2,
		Seed:    11,
		Resume:  cp,
		Restore: func(_ context.Context, spec Spec, jc JobCheckpoint) (Outcome, bool) {
			mu.Lock()
			restored = append(restored, jc.Index)
			mu.Unlock()
			return Outcome{Result: kept[jc.Index], Match: jc.Match, Attempts: jc.Attempts}, true
		},
		OnEvent: func(ev Event) {
			if ev.Kind == EventJobFinished && !ev.Resumed {
				executed = append(executed, ev.Index)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 2 || len(executed) != 1 || executed[0] != 1 {
		t.Fatalf("restored %v, executed %v; want 2 restored and only job 1 executed", restored, executed)
	}
	if rep.Succeeded != 3 || rep.Resumed != 2 {
		t.Fatalf("resumed report: %d succeeded, %d resumed", rep.Succeeded, rep.Resumed)
	}
	for i := range specs {
		if rep.Jobs[i].Fingerprint != full.Jobs[i].Fingerprint {
			t.Errorf("job %d mapping fingerprint diverged after resume", i)
		}
		if rep.Jobs[i].Match != full.Jobs[i].Match {
			t.Errorf("job %d match diverged after resume", i)
		}
	}
	if got, want := rep.Jobs[0].Resumed, true; got != want {
		t.Errorf("job 0 resumed=%v", got)
	}
}

// TestCheckpointResumeSeedMismatch: resuming under a different master
// seed is refused — the checkpointed jobs are not the ones this
// campaign would compute.
func TestCheckpointResumeSeedMismatch(t *testing.T) {
	specs := PaperSpecs(1)[:1]
	_, err := Run(context.Background(), specs, Config{
		Seed:    2,
		Resume:  &Checkpoint{Seed: 1},
		Restore: func(context.Context, Spec, JobCheckpoint) (Outcome, bool) { return Outcome{}, false },
	})
	if err == nil {
		t.Fatal("seed-mismatched resume accepted")
	}
}

// TestCheckpointRestoreMiss: when Restore cannot produce the outcome
// (store evicted, memory-only store restarted) the job simply re-runs —
// and the deterministic seeds make the re-run reproduce the checkpointed
// result.
func TestCheckpointRestoreMiss(t *testing.T) {
	specs := PaperSpecs(13)[:1]
	full, err := Run(context.Background(), specs, Config{Workers: 1, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	cp := &Checkpoint{Seed: 13, Jobs: []JobCheckpoint{jobCheckpoint(0, full.Jobs[0], 0)}}
	rep, err := Run(context.Background(), specs, Config{
		Workers: 1,
		Seed:    13,
		Resume:  cp,
		Restore: func(context.Context, Spec, JobCheckpoint) (Outcome, bool) { return Outcome{}, false },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed != 0 || rep.Succeeded != 1 {
		t.Fatalf("report after restore miss: %+v", rep)
	}
	if rep.Jobs[0].Fingerprint != full.Jobs[0].Fingerprint {
		t.Error("re-run after restore miss diverged from the original result")
	}
}
