package queue

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dramdig/internal/metrics"
	"dramdig/internal/storage"
)

// progressData is one event as a worker reports it: compact JSON, the
// form the daemon produces with json.Marshal.
const progressData = `{"kind":"job_finished","job":"No.1","index":0,"attempt":0,"match":true,"sim_s":1.25}`

// dataEvents returns the history entries Progress recorded.
func dataEvents(j Job) []Event {
	var out []Event
	for _, ev := range j.History {
		if len(ev.Data) > 0 {
			out = append(out, ev)
		}
	}
	return out
}

// TestProgressRecordsEvent: a lease holder's progress lands in the job's
// history with its kind as the Type, its bytes as Data, and the holder
// and attempt like any lease-driven event.
func TestProgressRecordsEvent(t *testing.T) {
	q := openTest(t, Config{})
	submitN(t, q, 1)
	l, _, err := leaseNext(t, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Progress(l.ID, "w", l.LeaseToken, "job_finished", json.RawMessage(progressData)); err != nil {
		t.Fatal(err)
	}
	got, _ := q.Get(l.ID)
	evs := dataEvents(got)
	if len(evs) != 1 {
		t.Fatalf("history %v, want one progress event", historyTypes(got.History))
	}
	ev := evs[0]
	if ev.Type != "job_finished" || string(ev.Data) != progressData || ev.Worker != "w" || ev.Attempt != 1 || ev.AtUnixNano == 0 {
		t.Fatalf("progress event = %+v", ev)
	}
	if got.State != StateRunning {
		t.Fatalf("progress changed the job's state to %s", got.State)
	}
}

// TestProgressFenced: Progress is fenced like Heartbeat — refused with a
// stale token, after the lease expired and after the job was cancelled,
// and a refused call records nothing.
func TestProgressFenced(t *testing.T) {
	q := openTest(t, Config{})
	submitN(t, q, 2)
	data := json.RawMessage(progressData)

	l, _, err := q.Lease("w1", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Progress(l.ID, "w1", "bogus", "job_started", data); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("stale token: err=%v, want ErrStaleLease", err)
	}
	if err := q.Progress(l.ID, "w2", l.LeaseToken, "job_started", data); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("wrong owner: err=%v, want ErrStaleLease", err)
	}
	if _, err := q.ExpireLeases(time.Now().Add(2 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := q.Progress(l.ID, "w1", l.LeaseToken, "job_started", data); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("after expiry: err=%v, want ErrLeaseExpired", err)
	}

	c, _, err := q.Lease("w1", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Cancel(c.ID, "cancelled by client"); err != nil {
		t.Fatal(err)
	}
	if err := q.Progress(c.ID, "w1", c.LeaseToken, "job_started", data); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("after cancel: err=%v, want ErrLeaseExpired", err)
	}
	if err := q.Progress("nope", "w1", c.LeaseToken, "job_started", data); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown job: err=%v, want ErrNotFound", err)
	}
	for _, j := range q.Jobs() {
		if evs := dataEvents(j); len(evs) != 0 {
			t.Fatalf("refused progress recorded on %s: %+v", j.ID, evs)
		}
	}
}

// TestProgressAddsNoFsync: a progress record is written to the WAL but
// made durable by the holder's next synced mutation, so it moves no
// fsync count of its own.
func TestProgressAddsNoFsync(t *testing.T) {
	q := openTest(t, Config{Dir: t.TempDir()})
	q.RegisterMetrics(metrics.NewRegistry())
	submitN(t, q, 1)
	l, _, err := leaseNext(t, q)
	if err != nil {
		t.Fatal(err)
	}
	before := q.walFsync.Count()
	for i := 0; i < 10; i++ {
		if err := q.Progress(l.ID, "w", l.LeaseToken, "job_started", json.RawMessage(progressData)); err != nil {
			t.Fatal(err)
		}
	}
	if after := q.walFsync.Count(); after != before {
		t.Fatalf("10 progress records cost %d fsyncs, want 0", after-before)
	}
	// The next heartbeat syncs once and covers them all.
	if _, err := q.Heartbeat(l.ID, "w", l.LeaseToken, time.Minute); err != nil {
		t.Fatal(err)
	}
	if after := q.walFsync.Count(); after != before+1 {
		t.Fatalf("heartbeat after progress: %d fsyncs, want 1", after-before)
	}
}

// TestProgressSurvivesCrash: once a later synced record covers it, a
// progress record survives a crash (reopen without Close), Data intact.
func TestProgressSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	q, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	submitN(t, q, 1)
	l, _, err := q.Lease("w", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Progress(l.ID, "w", l.LeaseToken, "job_finished", json.RawMessage(progressData)); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Heartbeat(l.ID, "w", l.LeaseToken, time.Minute); err != nil {
		t.Fatal(err)
	}
	q.wal.Close() // crash: no Close, no compaction

	q2 := openTest(t, Config{Dir: dir})
	got, ok := q2.Get(l.ID)
	if !ok {
		t.Fatalf("job %s lost across the crash", l.ID)
	}
	evs := dataEvents(got)
	if len(evs) != 1 || evs[0].Type != "job_finished" || string(evs[0].Data) != progressData {
		t.Fatalf("progress after crash: %+v", evs)
	}
}

// TestProgressDataRoundTrip: Data comes back byte-for-byte from a
// snapshot compaction, whether compaction ran mid-stream or at Close.
func TestProgressDataRoundTrip(t *testing.T) {
	dir := t.TempDir()
	q, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	q.compactAfter = 3
	submitN(t, q, 1)
	l, _, err := q.Lease("w", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Events as the daemon encodes them (json.Marshal: compact, HTML
	// characters escaped).
	type event struct {
		Kind  string `json:"kind"`
		Job   string `json:"job"`
		Index int    `json:"index"`
		Err   string `json:"err,omitempty"`
	}
	var datas []string
	for _, ev := range []event{
		{Kind: "job_started", Job: "No.1"},
		{Kind: "job_finished", Job: "No.1"},
		{Kind: "job_failed", Job: "custom & <one>", Index: 1, Err: "boom: \"quoted\"\n\u2028"},
	} {
		d, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		datas = append(datas, string(d))
	}
	for _, d := range datas {
		if err := q.Progress(l.ID, "w", l.LeaseToken, "job", json.RawMessage(d)); err != nil {
			t.Fatal(err)
		}
	}
	if q.StatsSnapshot().Compactions < 2 {
		t.Fatalf("no mid-stream compaction: %+v", q.StatsSnapshot())
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if err := storage.ReadLog(filepath.Join(dir, journalName), func(data []byte) error {
		if bytes.Contains(data, []byte("\n ")) {
			t.Fatalf("journal record is indented:\n%s", data)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	q2 := openTest(t, Config{Dir: dir})
	got, _ := q2.Get(l.ID)
	evs := dataEvents(got)
	if len(evs) != len(datas) {
		t.Fatalf("%d progress events after reopen, want %d", len(evs), len(datas))
	}
	for i, ev := range evs {
		if string(ev.Data) != datas[i] {
			t.Errorf("event %d Data:\n got %s\nwant %s", i, ev.Data, datas[i])
		}
	}
}

// TestIndentedSnapshotLoads: a snapshot written indented, as earlier
// versions wrote it, is imported with its jobs, IDs and histories, and
// goes once the journal holds them.
func TestIndentedSnapshotLoads(t *testing.T) {
	dir := t.TempDir()
	type snapshot struct {
		Version int    `json:"version"`
		Seq     uint64 `json:"seq"`
		NextID  uint64 `json:"next_id"`
		Jobs    []Job  `json:"jobs"`
	}
	old := snapshot{Version: 1, Seq: 4, NextID: 2, Jobs: []Job{
		{ID: "c1", Payload: json.RawMessage(`{"n":1}`), State: StateDone, Result: json.RawMessage(`"r"`), Seq: 1,
			History: []Event{{Seq: 1, Type: EventSubmitted}, {Seq: 4, Type: EventDone}}},
		{ID: "c2", Payload: json.RawMessage(`{"n":2}`), State: StateSubmitted, Seq: 3},
	}}
	data, err := json.MarshalIndent(old, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, oldSnapshotName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	q := openTest(t, Config{Dir: dir})
	if _, err := os.Stat(filepath.Join(dir, oldSnapshotName)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("imported snapshot left in place: %v", err)
	}
	if st := q.StatsSnapshot(); st.Done != 1 || st.Pending != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if j, _ := q.Get("c1"); string(j.Result) != `"r"` || len(j.History) != 2 {
		t.Fatalf("c1 = %+v", j)
	}
	if j := mustSubmit(t, q, `{"n":3}`, SubmitOptions{}); j.ID != "c3" {
		t.Fatalf("next ID %s, want c3", j.ID)
	}
}

// TestJournalWinsOverOldFiles: a journal beside an older release's files,
// as a crash between an import's compaction and their removal leaves
// it, is what Open replays; the old files are not read, and they go.
func TestJournalWinsOverOldFiles(t *testing.T) {
	dir := t.TempDir()
	q := openTest(t, Config{Dir: dir})
	j := mustSubmit(t, q, `{"n":1}`, SubmitOptions{})
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string]string{
		oldSnapshotName: `{"version":1,"seq":1,"next_id":7,"jobs":[{"id":"c7","state":"submitted","seq":1}]}`,
		oldWALName:      `{"seq":2,"op":"submit","job":{"id":"c8","state":"submitted","seq":2}}` + "\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	q2 := openTest(t, Config{Dir: dir})
	if jobs := q2.Jobs(); len(jobs) != 1 || jobs[0].ID != j.ID {
		t.Fatalf("jobs %+v, want only %s from the journal", jobs, j.ID)
	}
	for _, name := range []string{oldSnapshotName, oldWALName} {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%s left beside the journal: %v", name, err)
		}
	}
}

// TestChangedFires: every applied transition closes the channel Changed
// handed out before it — submit, lease, progress, expiry, completion and
// cancel alike. A heartbeat applies no record and does not fire it.
func TestChangedFires(t *testing.T) {
	q := openTest(t, Config{})
	step := func(name string, fn func() error) {
		t.Helper()
		ch := q.Changed()
		select {
		case <-ch:
			t.Fatalf("%s: channel closed before the transition", name)
		default:
		}
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		select {
		case <-ch:
		default:
			t.Fatalf("%s: Changed did not fire", name)
		}
	}
	var l Job
	step("submit", func() error { _, _, err := q.Submit(json.RawMessage(`{}`), SubmitOptions{}); return err })
	step("lease", func() (err error) { l, _, err = q.Lease("w", time.Minute); return err })
	step("progress", func() error {
		return q.Progress(l.ID, "w", l.LeaseToken, "job_started", json.RawMessage(progressData))
	})
	ch := q.Changed()
	if _, err := q.Heartbeat(l.ID, "w", l.LeaseToken, time.Minute); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	select {
	case <-ch:
		t.Fatal("heartbeat: Changed fired")
	default:
	}
	step("expiry", func() error { _, err := q.ExpireLeases(time.Now().Add(time.Hour)); return err })
	step("re-lease", func() (err error) { l, _, err = q.Lease("w", time.Minute); return err })
	step("complete", func() error { return q.CompleteLease(l.ID, "w", l.LeaseToken, nil) })
	step("submit", func() error { _, _, err := q.Submit(json.RawMessage(`{}`), SubmitOptions{}); return err })
	step("cancel", func() error { _, err := q.Cancel("c2", "stop"); return err })
}
