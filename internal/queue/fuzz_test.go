package queue

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dramdig/internal/storage"
)

// progressJournal returns the journal of a campaign run through every
// lease operation — progress records included — before any compaction
// but Open's.
func progressJournal(f *testing.F) []byte {
	must := func(err error) {
		if err != nil {
			f.Fatal(err)
		}
	}
	dir := f.TempDir()
	q, err := Open(Config{Dir: dir})
	must(err)
	defer q.Close()
	_, _, err = q.Submit(json.RawMessage(`{"request":{"machines":[1,4]},"seed":42}`), SubmitOptions{IdempotencyKey: "k"})
	must(err)
	_, _, err = q.Submit(json.RawMessage(`{"request":{"machines":[7]},"seed":5}`), SubmitOptions{Priority: 1})
	must(err)

	// The priority job runs, renews, expires, is re-leased and fails.
	l, _, err := q.Lease("w1", time.Minute)
	must(err)
	must(q.Progress(l.ID, "w1", l.LeaseToken, "job_started", json.RawMessage(`{"kind":"job_started","job":"No.7","index":0,"attempt":0}`)))
	_, err = q.Heartbeat(l.ID, "w1", l.LeaseToken, time.Minute)
	must(err)
	must(q.Progress(l.ID, "w1", l.LeaseToken, "job_finished", json.RawMessage(`{"kind":"job_finished","job":"No.7","index":0,"attempt":0,"match":true}`)))
	_, err = q.ExpireLeases(time.Now().Add(time.Hour))
	must(err)
	l, _, err = q.Lease("w2", time.Minute)
	must(err)
	must(q.Progress(l.ID, "w2", l.LeaseToken, "job_failed", json.RawMessage(`{"kind":"job_failed","job":"No.7","index":0,"attempt":1,"err":"boom"}`)))
	must(q.FailLease(l.ID, "w2", l.LeaseToken, "boom"))

	// The other completes.
	l, _, err = q.Lease("w1", time.Minute)
	must(err)
	must(q.CompleteLease(l.ID, "w1", l.LeaseToken, json.RawMessage(`{"total":2}`)))

	data, err := os.ReadFile(filepath.Join(dir, journalName))
	must(err)
	return data
}

// FuzzQueueReplay feeds arbitrary journal bytes, and optionally an
// arbitrary snapshot.json and wal.log of the releases before the
// journal, to recovery. Open must never panic, and whatever it accepts
// must survive its own compaction: Close and reopen give the same jobs.
// Opaque JSON fields are compared as encoded, since compaction
// re-encodes them compactly.
func FuzzQueueReplay(f *testing.F) {
	local, err := os.ReadFile(filepath.Join("testdata", "local-dispatch.wal"))
	if err != nil {
		f.Fatal(err)
	}
	cpWAL, err := os.ReadFile(filepath.Join("testdata", "checkpoint.wal"))
	if err != nil {
		f.Fatal(err)
	}
	cpSnap, err := os.ReadFile(filepath.Join("testdata", "checkpoint-snapshot.json"))
	if err != nil {
		f.Fatal(err)
	}
	progress := progressJournal(f)
	f.Add([]byte(nil), []byte(nil), local)
	f.Add(progress, []byte(nil), []byte(nil))
	f.Add(progress[:len(progress)/2], []byte(`{"version":1,"seq":2,"next_id":9,"jobs":[{"id":"c9","state":"running","seq":1}]}`), []byte(nil))
	// Two jobs sharing a submission number, which only a foreign journal
	// holds: their order must not follow map iteration.
	twins := storage.AppendRecord(nil, []byte(`{"seq":1,"op":"submit","job":{"id":"c1","state":"done","seq":1}}`))
	twins = storage.AppendRecord(twins, []byte(`{"seq":2,"op":"submit","job":{"id":"c2","state":"done","seq":1}}`))
	f.Add(twins, []byte(nil), []byte(nil))
	// The snapshot and WAL a daemon that shipped checkpoints left behind,
	// and its snapshot alone, as a clean stop leaves it.
	f.Add([]byte(nil), cpSnap, cpWAL)
	f.Add([]byte(nil), cpSnap, []byte(nil))

	f.Fuzz(func(t *testing.T, journal, snap, wal []byte) {
		dir := t.TempDir()
		for name, data := range map[string][]byte{journalName: journal, oldSnapshotName: snap, oldWALName: wal} {
			if len(data) == 0 {
				continue
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		q, err := Open(Config{Dir: dir})
		if err != nil {
			return
		}
		want, err := json.Marshal(q.Jobs())
		if err != nil {
			t.Fatalf("encode recovered jobs: %v", err)
		}
		if err := q.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		q2, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("reopen of a closed queue: %v", err)
		}
		defer q2.Close()
		got, err := json.Marshal(q2.Jobs())
		if err != nil {
			t.Fatalf("encode reopened jobs: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("jobs changed across Close and reopen:\nbefore %s\nafter  %s", want, got)
		}
	})
}
