package queue

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dramdig/internal/metrics"
)

func submitN(t *testing.T, q *Queue, n int) []Job {
	t.Helper()
	out := make([]Job, 0, n)
	for i := 0; i < n; i++ {
		j, dup, err := q.Submit(json.RawMessage(`{"n":`+string(rune('0'+i))+`}`), SubmitOptions{})
		if err != nil || dup {
			t.Fatalf("submit %d: dup=%v err=%v", i, dup, err)
		}
		out = append(out, j)
	}
	return out
}

// TestLeaseBasic: two workers leasing concurrently-pending jobs get
// distinct jobs — the same job is never double-leased — and completion
// is fenced by the token.
func TestLeaseBasic(t *testing.T) {
	q, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	submitN(t, q, 2)

	j1, ok, err := q.Lease("w1", time.Minute)
	if err != nil || !ok {
		t.Fatalf("lease 1: ok=%v err=%v", ok, err)
	}
	j2, ok, err := q.Lease("w2", time.Minute)
	if err != nil || !ok {
		t.Fatalf("lease 2: ok=%v err=%v", ok, err)
	}
	if j1.ID == j2.ID {
		t.Fatalf("job %s leased twice", j1.ID)
	}
	if j1.LeaseToken == "" || j1.LeaseToken == j2.LeaseToken {
		t.Fatalf("tokens not distinct: %q %q", j1.LeaseToken, j2.LeaseToken)
	}
	if j1.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", j1.Attempts)
	}
	if _, ok, _ := q.Lease("w3", time.Minute); ok {
		t.Fatal("third lease should find nothing pending")
	}

	// Wrong token is a stale lease; right token completes.
	if err := q.CompleteLease(j1.ID, "w1", "bogus", nil); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("bogus token: err=%v, want ErrStaleLease", err)
	}
	if err := q.CompleteLease(j1.ID, "w1", j1.LeaseToken, json.RawMessage(`"r1"`)); err != nil {
		t.Fatal(err)
	}
	got, _ := q.Get(j1.ID)
	if got.State != StateDone || got.LeaseToken != "" {
		t.Fatalf("after complete: state=%s token=%q", got.State, got.LeaseToken)
	}
	// Completing again is no longer a lease operation.
	if err := q.CompleteLease(j1.ID, "w1", j1.LeaseToken, nil); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("double complete: err=%v, want ErrLeaseExpired", err)
	}
	if err := q.FailLease(j2.ID, "w2", j2.LeaseToken, "boom"); err != nil {
		t.Fatal(err)
	}
	st := q.StatsSnapshot()
	if st.Done != 1 || st.Failed != 1 || st.Leased != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestLeaseEnded: the queue alone ends a lease, and it closes the
// lease's LeaseEnded channel when it does — on completion, failure,
// cancel and expiry — while Heartbeat and Progress leave it open. A job
// never leased has no channel, and neither has one Open recovered.
func TestLeaseEnded(t *testing.T) {
	closed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	ends := map[string]func(q *Queue, l Job) error{
		"complete": func(q *Queue, l Job) error { return q.CompleteLease(l.ID, "w", l.LeaseToken, nil) },
		"fail":     func(q *Queue, l Job) error { return q.FailLease(l.ID, "w", l.LeaseToken, "boom") },
		"cancel": func(q *Queue, l Job) error {
			_, err := q.Cancel(l.ID, "stop")
			return err
		},
		"expire": func(q *Queue, l Job) error {
			lapsed, err := q.ExpireLeases(time.Now().Add(2 * time.Minute))
			if err == nil && len(lapsed) != 1 {
				err = fmt.Errorf("expired %d leases, want 1", len(lapsed))
			}
			return err
		},
	}
	for name, end := range ends {
		t.Run(name, func(t *testing.T) {
			q := openTest(t, Config{})
			j := submitN(t, q, 1)[0]
			if got, _ := q.Get(j.ID); j.LeaseEnded() != nil || got.LeaseEnded() != nil {
				t.Fatal("a job never leased has a LeaseEnded channel")
			}
			l, ok, err := q.Lease("w", time.Minute)
			if err != nil || !ok {
				t.Fatalf("lease: ok=%v err=%v", ok, err)
			}
			ch := l.LeaseEnded()
			if ch == nil || closed(ch) {
				t.Fatalf("fresh lease: channel %v, closed %v", ch, ch != nil && closed(ch))
			}
			if _, err := q.Heartbeat(l.ID, "w", l.LeaseToken, time.Minute); err != nil {
				t.Fatal(err)
			}
			if err := q.Progress(l.ID, "w", l.LeaseToken, "job_started", json.RawMessage(`{}`)); err != nil {
				t.Fatal(err)
			}
			if closed(ch) {
				t.Fatal("Heartbeat or Progress ended the lease")
			}
			if err := end(q, l); err != nil {
				t.Fatal(err)
			}
			if !closed(ch) {
				t.Fatalf("%s left the lease's channel open", name)
			}
			if got, _ := q.Get(l.ID); got.LeaseEnded() != nil {
				t.Fatalf("job after %s still has a LeaseEnded channel", name)
			}
		})
	}

	// A lease dies with the process that granted it: the job Open
	// recovers has no channel until its next lease.
	dir := t.TempDir()
	q, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	submitN(t, q, 1)
	l, ok, err := q.Lease("w", time.Minute)
	if err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	q2 := openTest(t, Config{Dir: dir})
	if got, ok := q2.Get(l.ID); !ok || !got.Recovered || got.LeaseEnded() != nil {
		t.Fatalf("recovered job: ok=%v recovered=%v channel %v", ok, got.Recovered, got.LeaseEnded())
	}
}

// TestLeaseHeartbeatAfterExpiry: a heartbeat past the deadline is
// rejected deterministically, even before the sweep requeues the job.
func TestLeaseHeartbeatAfterExpiry(t *testing.T) {
	q, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	submitN(t, q, 1)

	j, ok, err := q.Lease("w1", 5*time.Millisecond)
	if err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	// A live heartbeat extends the deadline.
	hb, err := q.Heartbeat(j.ID, "w1", j.LeaseToken, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if hb.State != StateRunning || hb.LeaseToken != j.LeaseToken {
		t.Fatalf("after heartbeat: %+v", hb)
	}
	time.Sleep(20 * time.Millisecond)
	if _, err := q.Heartbeat(j.ID, "w1", j.LeaseToken, time.Minute); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("late heartbeat: err=%v, want ErrLeaseExpired", err)
	}

	lapsed, err := q.ExpireLeases(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(lapsed) != 1 || lapsed[0].ID != j.ID || lapsed[0].LeaseOwner != "w1" {
		t.Fatalf("lapsed = %+v", lapsed)
	}
	got, _ := q.Get(j.ID)
	if got.State != StateSubmitted || got.LeaseToken != "" {
		t.Fatalf("after expiry: state=%s token=%q", got.State, got.LeaseToken)
	}
	if st := q.StatsSnapshot(); st.Expired != 1 || st.Pending != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestHeartbeatJournalsNothing: with no progress pending, a heartbeat
// neither grows the WAL nor fsyncs, and the deadline it sets in memory
// is still the one that governs: a sweep at the lease's first deadline
// requeues nothing, and a heartbeat past that deadline succeeds.
func TestHeartbeatJournalsNothing(t *testing.T) {
	dir := t.TempDir()
	q := openTest(t, Config{Dir: dir})
	q.RegisterMetrics(metrics.NewRegistry())
	submitN(t, q, 1)
	// Long enough for the lease's own fsync to land well inside it.
	l, ok, err := q.Lease("w", 400*time.Millisecond)
	if err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	walSize := func() int64 {
		t.Helper()
		fi, err := os.Stat(filepath.Join(dir, journalName))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	size, fsyncs := walSize(), q.walFsync.Count()
	hb, err := q.Heartbeat(l.ID, "w", l.LeaseToken, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if got := walSize(); got != size {
		t.Fatalf("heartbeat grew the WAL from %d to %d bytes", size, got)
	}
	if got := q.walFsync.Count(); got != fsyncs {
		t.Fatalf("heartbeat cost %d fsyncs, want 0", got-fsyncs)
	}
	if hb.LeaseExpiresUnixNano <= l.LeaseExpiresUnixNano {
		t.Fatalf("deadline not renewed: %d, lease %d", hb.LeaseExpiresUnixNano, l.LeaseExpiresUnixNano)
	}

	oldDeadline := time.Unix(0, l.LeaseExpiresUnixNano)
	if lapsed, err := q.ExpireLeases(oldDeadline); err != nil || len(lapsed) != 0 {
		t.Fatalf("sweep at the first deadline: lapsed=%+v err=%v", lapsed, err)
	}
	time.Sleep(time.Until(oldDeadline) + 10*time.Millisecond)
	if _, err := q.Heartbeat(l.ID, "w", l.LeaseToken, time.Hour); err != nil {
		t.Fatalf("heartbeat past the first deadline: %v", err)
	}
	if got := q.walFsync.Count(); got != fsyncs {
		t.Fatalf("two heartbeats cost %d fsyncs, want 0", got-fsyncs)
	}
}

// TestLeaseStaleComplete: the fencing scenario — worker 1's lease
// expires, the job is requeued and re-leased to worker 2; worker 1's
// late completion must be rejected and worker 2's must land, exactly
// once, with the attempt count carried over. The lease lapses
// through a sweep dated past its deadline, not a sleep: a durable
// lease's own fsync can outlast any short TTL.
func TestLeaseStaleComplete(t *testing.T) {
	q, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	submitN(t, q, 1)

	j1, ok, err := q.Lease("w1", time.Minute)
	if err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	if _, err := q.Heartbeat(j1.ID, "w1", j1.LeaseToken, time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := q.ExpireLeases(time.Now().Add(2 * time.Minute)); err != nil {
		t.Fatal(err)
	}

	j2, ok, err := q.Lease("w2", time.Minute)
	if err != nil || !ok {
		t.Fatalf("re-lease: ok=%v err=%v", ok, err)
	}
	if j2.ID != j1.ID {
		t.Fatalf("re-lease got %s, want %s", j2.ID, j1.ID)
	}
	if j2.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", j2.Attempts)
	}

	// Worker 1 wakes up and tries to finish with its dead token.
	if err := q.CompleteLease(j1.ID, "w1", j1.LeaseToken, json.RawMessage(`"stale"`)); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("stale complete: err=%v, want ErrStaleLease", err)
	}
	if _, err := q.Heartbeat(j1.ID, "w1", j1.LeaseToken, time.Minute); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("stale heartbeat: err=%v, want ErrStaleLease", err)
	}
	// The stale attempt corrupted nothing: w2 still owns the job.
	got, _ := q.Get(j1.ID)
	if got.LeaseOwner != "w2" || !got.State.InFlight() {
		t.Fatalf("after stale attempts: owner=%q state=%s", got.LeaseOwner, got.State)
	}

	if err := q.CompleteLease(j2.ID, "w2", j2.LeaseToken, json.RawMessage(`"real"`)); err != nil {
		t.Fatal(err)
	}
	got, _ = q.Get(j2.ID)
	if got.State != StateDone || string(got.Result) != `"real"` {
		t.Fatalf("final: state=%s result=%s", got.State, got.Result)
	}
	if st := q.StatsSnapshot(); st.Done != 1 || st.Running != 0 || st.Pending != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestLeaseSurvivesWALReplay: lease state round-trips through the WAL —
// a reopened queue requeues leased jobs like any other in-flight work,
// clearing the lease so the dead grant cannot be acted on.
func TestLeaseSurvivesWALReplay(t *testing.T) {
	dir := t.TempDir()
	q, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	submitN(t, q, 1)
	j, ok, err := q.Lease("w1", time.Minute)
	if err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	if _, err := q.Heartbeat(j.ID, "w1", j.LeaseToken, time.Minute); err != nil {
		t.Fatal(err)
	}
	// Abandon without Close: recovery must replay the WAL records.
	q.wal.Close()

	q2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	got, okGet := q2.Get(j.ID)
	if !okGet {
		t.Fatalf("job %s lost across restart", j.ID)
	}
	if got.State != StateSubmitted || !got.Recovered {
		t.Fatalf("recovered job: state=%s recovered=%v", got.State, got.Recovered)
	}
	if got.LeaseOwner != "" || got.LeaseToken != "" || got.LeaseExpiresUnixNano != 0 {
		t.Fatalf("lease survived restart: %+v", got)
	}
	// The old token is dead on the new process.
	if _, err := q2.Heartbeat(j.ID, "w1", j.LeaseToken, time.Minute); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("heartbeat across restart: err=%v, want ErrLeaseExpired", err)
	}
}

// TestCheckpointJournalReplays: the state a daemon that still shipped
// campaign checkpoints left, captured from that code in testdata. Its
// snapshot alone, as a clean stop leaves it, imports: a "checkpointed"
// job with a checkpoint field and a running one come back pending and
// recovered with their attempt counts, the checkpoints are dropped, and
// they lease again in FIFO order. With that release's WAL beside it,
// still holding the "renew" records a kill mid-campaign left, Open
// refuses.
func TestCheckpointJournalReplays(t *testing.T) {
	snap, err := os.ReadFile(filepath.Join("testdata", "checkpoint-snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join("testdata", "checkpoint.wal"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, data := range map[string][]byte{oldSnapshotName: snap, oldWALName: wal} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if q, err := Open(Config{Dir: dir}); err == nil {
		q.Close()
		t.Fatal("a WAL holding records was not refused")
	} else if !strings.Contains(err.Error(), filepath.Join(dir, oldWALName)) {
		t.Fatalf("refusal does not name the WAL: %v", err)
	}

	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, oldSnapshotName), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	q, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("state written with checkpoints does not open: %v", err)
	}
	defer q.Close()

	if st := q.StatsSnapshot(); st.Pending != 2 || st.Running != 0 || st.Recovered != 2 {
		t.Fatalf("stats = %+v", st)
	}
	for id, attempts := range map[string]int{"c1": 2, "c2": 1} {
		j, ok := q.Get(id)
		if !ok || j.State != StateSubmitted || !j.Recovered || j.Attempts != attempts || j.LeaseToken != "" {
			t.Fatalf("%s after recovery: ok=%v %+v (want %d attempts)", id, ok, j, attempts)
		}
	}
	for _, id := range []string{"c1", "c2"} {
		l, ok, err := q.Lease("w1", time.Minute)
		if err != nil || !ok || l.ID != id {
			t.Fatalf("lease: ok=%v err=%v got %q, want %s", ok, err, l.ID, id)
		}
		if err := q.CompleteLease(l.ID, "w1", l.LeaseToken, json.RawMessage(`{"total":2}`)); err != nil {
			t.Fatal(err)
		}
	}
	if st := q.StatsSnapshot(); st.Done != 2 || st.Pending != 0 {
		t.Fatalf("stats after completion = %+v", st)
	}
}

// TestPreLeaseJournalRefused: a WAL written before local dispatch ran
// on leases — "state running" pickups and checkpoint records,
// captured from that code in testdata/local-dispatch.wal — is refused
// with an error naming the file and the remedy, not half-replayed.
func TestPreLeaseJournalRefused(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "local-dispatch.wal"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, oldWALName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	q, err := Open(Config{Dir: dir})
	if err == nil {
		q.Close()
		t.Fatal("a pre-lease journal opened")
	}
	if msg := err.Error(); !strings.Contains(msg, filepath.Join(dir, oldWALName)) || !strings.Contains(msg, "stop it cleanly") {
		t.Fatalf("refusal does not name the WAL and the remedy: %v", err)
	}
}

// TestGroupCommitConcurrentSubmit hammers a durable queue from many
// goroutines: every submission must be acknowledged, visible, and
// durable across a reopen — the group commit must lose nothing.
func TestGroupCommitConcurrentSubmit(t *testing.T) {
	dir := t.TempDir()
	q, err := Open(Config{Dir: dir, Capacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	q.compactAfter = 1 << 20

	const goroutines, per = 8, 25
	var wg sync.WaitGroup
	ids := make([][]string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				j, dup, err := q.Submit(json.RawMessage(`{}`), SubmitOptions{})
				if err != nil || dup {
					t.Errorf("g%d submit %d: dup=%v err=%v", g, i, dup, err)
					return
				}
				ids[g] = append(ids[g], j.ID)
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Every acknowledged job is pending and dequeueable right now.
	if st := q.StatsSnapshot(); st.Pending != goroutines*per {
		t.Fatalf("pending = %d, want %d", st.Pending, goroutines*per)
	}
	// Simulate a crash: no Close, no compaction — only the WAL.
	q.wal.Close()

	q2, err := Open(Config{Dir: dir, Capacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	q2.compactAfter = 1 << 20
	defer q2.Close()
	for g, list := range ids {
		if len(list) != per {
			t.Fatalf("g%d acknowledged %d submits, want %d", g, len(list), per)
		}
		for _, id := range list {
			j, ok := q2.Get(id)
			if !ok {
				t.Fatalf("job %s acknowledged but lost across restart", id)
			}
			if j.State != StateSubmitted {
				t.Fatalf("job %s state = %s", id, j.State)
			}
		}
	}
}

// TestGroupCommitMixedOps: concurrent submit + lease + complete traffic
// on a durable queue stays consistent — the watermark never marks an
// unsynced record durable and no job is lost or run twice.
func TestGroupCommitMixedOps(t *testing.T) {
	q, err := Open(Config{Dir: t.TempDir(), Capacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	q.compactAfter = 1 << 20
	defer q.Close()

	const jobs = 40
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < jobs; i++ {
			if _, _, err := q.Submit(json.RawMessage(`{}`), SubmitOptions{}); err != nil {
				t.Errorf("submit: %v", err)
				return
			}
		}
	}()
	var completed sync.Map
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker := "w" + strings.Repeat("x", w+1)
			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) {
				j, ok, err := q.Lease(worker, time.Minute)
				if err != nil {
					t.Errorf("lease: %v", err)
					return
				}
				if !ok {
					done := 0
					completed.Range(func(any, any) bool { done++; return true })
					if done >= jobs {
						return
					}
					time.Sleep(time.Millisecond)
					continue
				}
				if _, loaded := completed.LoadOrStore(j.ID, worker); loaded {
					t.Errorf("job %s ran twice", j.ID)
					return
				}
				if err := q.CompleteLease(j.ID, worker, j.LeaseToken, nil); err != nil {
					t.Errorf("complete %s: %v", j.ID, err)
					return
				}
			}
			t.Error("workers timed out before draining the queue")
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if st := q.StatsSnapshot(); st.Done != jobs || st.Pending != 0 || st.Running != 0 {
		t.Fatalf("stats = %+v", st)
	}
}
