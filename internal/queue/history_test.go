package queue

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"dramdig/internal/metrics"
)

// history reads a job's recorded events the one way callers do: through
// Get.
func history(q *Queue, id string) ([]Event, bool) {
	j, ok := q.Get(id)
	return j.History, ok
}

func historyTypes(evs []Event) []string {
	out := make([]string, len(evs))
	for i, ev := range evs {
		out[i] = ev.Type
	}
	return out
}

func sameTypes(got []string, want ...string) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestJobHistoryLifecycle: a full lease lifecycle — submit, lease,
// renewal, expiry with requeue, re-lease, completion — leaves an
// ordered, worker-attributed event trail; the renewal leaves none.
func TestJobHistoryLifecycle(t *testing.T) {
	q, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	j := submitN(t, q, 1)[0]

	l1, ok, err := q.Lease("w1", 5*time.Millisecond)
	if err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	if _, err := q.Heartbeat(l1.ID, "w1", l1.LeaseToken, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if _, err := q.ExpireLeases(time.Now()); err != nil {
		t.Fatal(err)
	}
	l2, ok, err := q.Lease("w2", time.Minute)
	if err != nil || !ok {
		t.Fatalf("re-lease: ok=%v err=%v", ok, err)
	}
	if err := q.CompleteLease(l2.ID, "w2", l2.LeaseToken, json.RawMessage(`"r"`)); err != nil {
		t.Fatal(err)
	}

	evs, ok := history(q, j.ID)
	if !ok {
		t.Fatalf("history of %s not found", j.ID)
	}
	if !sameTypes(historyTypes(evs),
		EventSubmitted, EventLeased, EventExpired, EventRequeued, EventLeased, EventDone) {
		t.Fatalf("history = %v", historyTypes(evs))
	}
	if evs[1].Worker != "w1" || evs[1].Attempt != 1 {
		t.Fatalf("leased event = %+v", evs[1])
	}
	if evs[2].Worker != "w1" {
		t.Fatalf("expired not attributed to w1: %+v", evs[2])
	}
	if evs[4].Worker != "w2" || evs[4].Attempt != 2 {
		t.Fatalf("re-lease event = %+v", evs[4])
	}
	if evs[5].Worker != "w2" {
		t.Fatalf("done event = %+v", evs[5])
	}
	// Seqs are non-decreasing; expiry and its requeue share one WAL
	// record, hence one seq.
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq < evs[i-1].Seq {
			t.Fatalf("event seqs regress: %+v", evs)
		}
		if evs[i].AtUnixNano < evs[i-1].AtUnixNano {
			t.Fatalf("event timestamps regress: %+v", evs)
		}
	}
	if evs[0].AtUnixNano == 0 {
		t.Fatal("submit event has no timestamp")
	}

	// Mutating the returned slice must not reach the stored history.
	evs[0].Type = "tampered"
	again, _ := history(q, j.ID)
	if again[0].Type != EventSubmitted {
		t.Fatal("Get returned a live history")
	}
	if _, ok := history(q, "nope"); ok {
		t.Fatal("history of unknown job reported present")
	}
}

// TestJobHistoryPersists: history replays from the WAL after a reopen,
// and the recovery requeue of an in-flight job is itself recorded.
func TestJobHistoryPersists(t *testing.T) {
	dir := t.TempDir()
	q, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	j := submitN(t, q, 1)[0]
	l, ok, err := q.Lease("w1", time.Minute)
	if err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	if err := q.Progress(l.ID, "w1", l.LeaseToken, "job_started", json.RawMessage(`{"p":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	q2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	evs, ok := history(q2, j.ID)
	if !ok {
		t.Fatalf("history lost across reopen")
	}
	if !sameTypes(historyTypes(evs),
		EventSubmitted, EventLeased, "job_started", EventRequeued) {
		t.Fatalf("history after reopen = %v", historyTypes(evs))
	}
	if evs[1].Worker != "w1" || evs[2].Worker != "w1" || string(evs[2].Data) != `{"p":2}` {
		t.Fatalf("worker attribution or event data lost across reopen: %+v %+v", evs[1], evs[2])
	}
	if evs[3].Detail != "recovered" {
		t.Fatalf("recovery requeue event = %+v", evs[3])
	}

	// A second reopen replays from the compacted snapshot, not the WAL —
	// the history must survive that path too. The job is already pending,
	// so no second requeue event appears.
	if err := q2.Close(); err != nil {
		t.Fatal(err)
	}
	q3, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer q3.Close()
	evs3, ok := history(q3, j.ID)
	if !ok || !sameTypes(historyTypes(evs3),
		EventSubmitted, EventLeased, "job_started", EventRequeued) {
		t.Fatalf("history after second reopen = %v, ok=%v", historyTypes(evs3), ok)
	}
}

// TestJobHistoryCap: the history is bounded; the submission event is
// pinned and the tail keeps the most recent events.
func TestJobHistoryCap(t *testing.T) {
	q, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	j := submitN(t, q, 1)[0]
	l, ok, err := q.Lease("w1", time.Hour)
	if err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	for i := 0; i < maxJobHistory+100; i++ {
		if err := q.Progress(l.ID, "w1", l.LeaseToken, "job_finished", json.RawMessage(`{"i":1}`)); err != nil {
			t.Fatal(err)
		}
	}
	evs, _ := history(q, j.ID)
	if len(evs) != maxJobHistory {
		t.Fatalf("history length = %d, want %d", len(evs), maxJobHistory)
	}
	if evs[0].Type != EventSubmitted {
		t.Fatalf("submission event evicted: %+v", evs[0])
	}
	if evs[len(evs)-1].Type != "job_finished" {
		t.Fatalf("tail = %+v", evs[len(evs)-1])
	}
}

// TestLeaseWaitHistogram: submit→first-lease latency is observed once
// per job (re-leases excluded) and survives a restart because it is
// reconstructed from the persisted submission stamp.
func TestLeaseWaitHistogram(t *testing.T) {
	dir := t.TempDir()
	q, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	r := metrics.NewRegistry()
	q.RegisterMetrics(r)
	submitN(t, q, 1)

	l, ok, err := q.Lease("w1", 5*time.Millisecond)
	if err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	if n, _ := r.Snapshot().Total("dramdig_queue_lease_wait_seconds"); n != 1 {
		t.Fatalf("lease_wait count after first lease = %v, want 1", n)
	}
	time.Sleep(20 * time.Millisecond)
	if _, err := q.ExpireLeases(time.Now()); err != nil {
		t.Fatal(err)
	}
	l2, ok, err := q.Lease("w2", time.Minute)
	if err != nil || !ok {
		t.Fatalf("re-lease: ok=%v err=%v", ok, err)
	}
	if n, _ := r.Snapshot().Total("dramdig_queue_lease_wait_seconds"); n != 1 {
		t.Fatalf("lease_wait count after re-lease = %v, want 1 (re-leases excluded)", n)
	}
	if err := q.CompleteLease(l2.ID, "w2", l2.LeaseToken, nil); err != nil {
		t.Fatal(err)
	}
	_ = l

	// Restart: a job submitted before the crash reports its full
	// wall-clock wait when first leased by the new process.
	if _, _, err := q.Submit(json.RawMessage(`{"wait":1}`), SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	q2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	r2 := metrics.NewRegistry()
	q2.RegisterMetrics(r2)
	if _, ok, err := q2.Lease("w1", time.Minute); err != nil || !ok {
		t.Fatalf("post-restart lease: ok=%v err=%v", ok, err)
	}
	snap := r2.Snapshot()
	if n, _ := snap.Total("dramdig_queue_lease_wait_seconds"); n != 1 {
		t.Fatalf("post-restart lease_wait count = %v, want 1", n)
	}
	var sb strings.Builder
	if err := r2.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "dramdig_queue_lease_wait_seconds_sum") {
		t.Fatal("lease_wait histogram missing from scrape")
	}
	for _, fam := range snap.Families {
		if fam.Name != "dramdig_queue_lease_wait_seconds" {
			continue
		}
		if fam.Children[0].Sum < 0.030 {
			t.Fatalf("post-restart wait sum = %v, want >= 30ms (spans the restart)", fam.Children[0].Sum)
		}
	}
}
