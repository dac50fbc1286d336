package queue

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dramdig/internal/metrics"
	"dramdig/internal/storage"
)

func openTest(t *testing.T, cfg Config) *Queue {
	t.Helper()
	q, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { q.Close() })
	return q
}

// leaseNext leases the best pending job as worker "w" — the one way
// work leaves the queue.
func leaseNext(t *testing.T, q *Queue) (Job, bool, error) {
	t.Helper()
	return q.Lease("w", time.Minute)
}

func mustSubmit(t *testing.T, q *Queue, payload string, opts SubmitOptions) Job {
	t.Helper()
	j, dup, err := q.Submit(json.RawMessage(payload), opts)
	if err != nil {
		t.Fatal(err)
	}
	if dup {
		t.Fatalf("unexpected dup for payload %s", payload)
	}
	return j
}

// TestQueuePriorityFIFO: lease order is priority-major, submission
// FIFO within a priority.
func TestQueuePriorityFIFO(t *testing.T) {
	q := openTest(t, Config{})
	a := mustSubmit(t, q, `{"n":1}`, SubmitOptions{})
	b := mustSubmit(t, q, `{"n":2}`, SubmitOptions{Priority: 5})
	c := mustSubmit(t, q, `{"n":3}`, SubmitOptions{Priority: 5})
	d := mustSubmit(t, q, `{"n":4}`, SubmitOptions{Priority: 1})

	var got []string
	for {
		j, ok, err := leaseNext(t, q)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, j.ID)
		if j.Attempts != 1 {
			t.Errorf("job %s attempts %d, want 1", j.ID, j.Attempts)
		}
	}
	want := []string{b.ID, c.ID, d.ID, a.ID}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("lease order %v, want %v", got, want)
	}
}

// TestQueueCapacity: the pending backlog is bounded; leased jobs free
// their slot.
func TestQueueCapacity(t *testing.T) {
	q := openTest(t, Config{Capacity: 2})
	mustSubmit(t, q, `1`, SubmitOptions{})
	mustSubmit(t, q, `2`, SubmitOptions{})
	if _, _, err := q.Submit(json.RawMessage(`3`), SubmitOptions{}); !errors.Is(err, ErrFull) {
		t.Fatalf("over-capacity submit: %v, want ErrFull", err)
	}
	if _, ok, err := leaseNext(t, q); err != nil || !ok {
		t.Fatalf("lease: %v %v", ok, err)
	}
	if _, _, err := q.Submit(json.RawMessage(`3`), SubmitOptions{}); err != nil {
		t.Fatalf("submit after lease freed a slot: %v", err)
	}
}

// TestQueueIdempotency: a key resubmitted while its job is retained
// returns the original job — pending, running and terminal alike.
func TestQueueIdempotency(t *testing.T) {
	q := openTest(t, Config{})
	orig := mustSubmit(t, q, `{"x":1}`, SubmitOptions{IdempotencyKey: "k1"})

	j, dup, err := q.Submit(json.RawMessage(`{"x":2}`), SubmitOptions{IdempotencyKey: "k1"})
	if err != nil || !dup || j.ID != orig.ID {
		t.Fatalf("pending dedup: %v dup=%v id=%s want %s", err, dup, j.ID, orig.ID)
	}
	if string(j.Payload) != `{"x":1}` {
		t.Errorf("dedup returned payload %s, want the original", j.Payload)
	}

	l, ok, _ := leaseNext(t, q)
	if !ok {
		t.Fatal("lease")
	}
	if _, dup, _ := q.Submit(nil, SubmitOptions{IdempotencyKey: "k1"}); !dup {
		t.Error("running dedup failed")
	}
	if err := q.CompleteLease(orig.ID, "w", l.LeaseToken, json.RawMessage(`"ok"`)); err != nil {
		t.Fatal(err)
	}
	j, dup, err = q.Submit(nil, SubmitOptions{IdempotencyKey: "k1"})
	if err != nil || !dup || j.State != StateDone {
		t.Fatalf("terminal dedup: %v dup=%v state=%s", err, dup, j.State)
	}
}

// TestQueueRecovery is the contract at the heart of the subsystem: a
// queue reopened after an unclean death (no Close) finds every job, and
// in-flight jobs are pending again with their attempt counts.
func TestQueueRecovery(t *testing.T) {
	dir := t.TempDir()
	q1, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	done := mustSubmit(t, q1, `{"job":"done"}`, SubmitOptions{IdempotencyKey: "kd"})
	run := mustSubmit(t, q1, `{"job":"interrupted"}`, SubmitOptions{})
	idle := mustSubmit(t, q1, `{"job":"idle"}`, SubmitOptions{Priority: -1})

	tokens := map[string]string{}
	for i := 0; i < 2; i++ { // lease `done` and `run`
		l, ok, err := leaseNext(t, q1)
		if err != nil || !ok {
			t.Fatalf("lease %d: %v %v", i, ok, err)
		}
		tokens[l.ID] = l.LeaseToken
	}
	if err := q1.CompleteLease(done.ID, "w", tokens[done.ID], json.RawMessage(`{"r":1}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := q1.Heartbeat(run.ID, "w", tokens[run.ID], time.Minute); err != nil {
		t.Fatal(err)
	}
	// No Close: the process "dies" here.

	q2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()

	j, ok := q2.Get(done.ID)
	if !ok || j.State != StateDone || string(j.Result) != `{"r":1}` {
		t.Fatalf("done job after recovery: ok=%v %+v", ok, j)
	}
	j, ok = q2.Get(run.ID)
	if !ok || j.State != StateSubmitted || !j.Recovered {
		t.Fatalf("interrupted job after recovery: ok=%v %+v", ok, j)
	}
	if j.Attempts != 1 || j.LeaseToken != "" {
		t.Fatalf("interrupted job lost progress: %+v", j)
	}
	j, ok = q2.Get(idle.ID)
	if !ok || j.State != StateSubmitted || j.Recovered {
		t.Fatalf("idle job after recovery: ok=%v %+v", ok, j)
	}

	// Idempotency keys survive recovery.
	if _, dup, _ := q2.Submit(nil, SubmitOptions{IdempotencyKey: "kd"}); !dup {
		t.Error("idempotency key lost across recovery")
	}
	// The interrupted job leases before the idle one (same default
	// priority beats priority -1; recovery kept FIFO order).
	got, ok, err := leaseNext(t, q2)
	if err != nil || !ok || got.ID != run.ID {
		t.Fatalf("first recovered lease %v %v %v, want %s", got.ID, ok, err, run.ID)
	}
	if got.Attempts != 2 {
		t.Errorf("recovered job attempts %d, want 2", got.Attempts)
	}
	// IDs keep counting where the dead process stopped — no collisions.
	fresh := mustSubmit(t, q2, `{}`, SubmitOptions{})
	for _, old := range []string{done.ID, run.ID, idle.ID} {
		if fresh.ID == old {
			t.Fatalf("recovered queue reissued ID %s", old)
		}
	}
}

// TestQueueTornTail: a torn final journal record (a write cut short at
// crash) is dropped; a corrupt record before an intact one is an error
// naming the journal and the offset, and leaves the journal as it was.
func TestQueueTornTail(t *testing.T) {
	dir := t.TempDir()
	q1, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	keep := mustSubmit(t, q1, `{"keep":true}`, SubmitOptions{})
	journalPath := filepath.Join(dir, journalName)

	f, err := os.OpenFile(journalPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := storage.AppendRecord(nil, []byte(`{"seq":999,"op":"submit","job":{"id":"c999","state":"submitted","seq":999}}`))
	if _, err := f.Write(torn[:len(torn)-5]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	q2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	if _, ok := q2.Get(keep.ID); !ok {
		t.Error("intact record lost with the torn tail")
	}
	if _, ok := q2.Get("c999"); ok {
		t.Error("torn record replayed")
	}
	q2.Close()

	// Corruption in the middle is not silently eaten: a byte flipped in
	// the head record, with the job's submit record intact after it.
	data, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	data[8] ^= 0xff
	if err := os.WriteFile(journalPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("mid-journal corruption went unnoticed")
	} else if want := journalPath + ": torn record at offset 0"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %q", err, want)
	}
	if after, _ := os.ReadFile(journalPath); !bytes.Equal(after, data) {
		t.Fatal("refused journal changed")
	}
}

// TestQueueCompaction: once compactAfter records accumulate, the journal
// is rewritten as a head record plus one submit record per job, later
// records append after them, and that journal alone reproduces the
// state. A durable queue's directory holds nothing but the journal.
func TestQueueCompaction(t *testing.T) {
	dir := t.TempDir()
	q1, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	q1.compactAfter = 4
	var last Job
	for i := 0; i < 6; i++ {
		last = mustSubmit(t, q1, fmt.Sprintf(`{"i":%d}`, i), SubmitOptions{})
	}
	// 6 submits with compactAfter=4: compacted at 4, so the 4 compacted
	// jobs follow the head and 2 appended records follow them.
	var ops []string
	if err := storage.ReadLog(filepath.Join(dir, journalName), func(data []byte) error {
		var rec walRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return err
		}
		ops = append(ops, fmt.Sprintf("%s@%d", rec.Op, rec.Seq))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(ops, " "), "head@4 submit@4 submit@4 submit@4 submit@4 submit@5 submit@6"; got != want {
		t.Fatalf("journal records %s, want %s", got, want)
	}

	q2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	q2.compactAfter = 4
	if got := q2.StatsSnapshot().Pending; got != 6 {
		t.Fatalf("recovered %d pending jobs, want 6", got)
	}
	if _, ok := q2.Get(last.ID); !ok {
		t.Error("post-compaction submit lost")
	}
	for i := 0; i < 4; i++ {
		mustSubmit(t, q2, `{}`, SubmitOptions{})
	}
	if n := q2.StatsSnapshot().Compactions; n != 2 {
		t.Fatalf("%d compactions, want Open's and one mid-run", n)
	}
	if err := q2.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != journalName {
		t.Fatalf("queue directory holds %d entries, want only %s", len(ents), journalName)
	}
}

// TestQueueTransitions rejects illegal state moves.
func TestQueueTransitions(t *testing.T) {
	q := openTest(t, Config{})
	j := mustSubmit(t, q, `{}`, SubmitOptions{})

	if err := q.CompleteLease(j.ID, "w", "", nil); !errors.Is(err, ErrLeaseExpired) {
		t.Errorf("complete of pending job: %v", err)
	}
	if _, err := q.Heartbeat(j.ID, "w", "", time.Minute); !errors.Is(err, ErrLeaseExpired) {
		t.Errorf("heartbeat of pending job: %v", err)
	}
	l, _, err := leaseNext(t, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.CompleteLease(j.ID, "w", l.LeaseToken, nil); err != nil {
		t.Fatal(err)
	}
	if err := q.FailLease(j.ID, "w", l.LeaseToken, "again"); !errors.Is(err, ErrLeaseExpired) {
		t.Errorf("fail of done job: %v", err)
	}
	if _, err := q.Cancel(j.ID, "late"); !errors.Is(err, ErrBadState) {
		t.Errorf("cancel of done job: %v", err)
	}
	if err := q.CompleteLease("nope", "w", l.LeaseToken, nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("complete of unknown job: %v", err)
	}

	// Pending cancel is legal and terminal.
	p := mustSubmit(t, q, `{}`, SubmitOptions{})
	got, err := q.Cancel(p.ID, "operator said so")
	if err != nil || got.State != StateCancelled || got.Error != "operator said so" {
		t.Fatalf("cancel: %v %+v", err, got)
	}
	if _, ok, _ := leaseNext(t, q); ok {
		t.Error("cancelled job still leased")
	}

	// Leased cancel is legal too: the job ends, and its lease dies with
	// it — the holder's next heartbeat or completion is fenced off.
	r := mustSubmit(t, q, `{}`, SubmitOptions{})
	rl, ok, err := leaseNext(t, q)
	if err != nil || !ok || rl.ID != r.ID {
		t.Fatalf("lease: %v %v %+v", ok, err, rl)
	}
	got, err = q.Cancel(r.ID, "cancelled by client")
	if err != nil || got.State != StateCancelled || got.LeaseToken != "" {
		t.Fatalf("cancel of leased job: %v %+v", err, got)
	}
	if _, err := q.Heartbeat(r.ID, "w", rl.LeaseToken, time.Minute); !errors.Is(err, ErrLeaseExpired) {
		t.Errorf("heartbeat after cancel: %v, want ErrLeaseExpired", err)
	}
	if err := q.CompleteLease(r.ID, "w", rl.LeaseToken, nil); !errors.Is(err, ErrLeaseExpired) {
		t.Errorf("complete after cancel: %v, want ErrLeaseExpired", err)
	}
	if st := q.StatsSnapshot(); st.Cancelled != 2 || st.Running != 0 || st.Leased != 0 {
		t.Errorf("stats after cancels: %+v", st)
	}
}

// TestQueueTerminalEviction: terminal retention is bounded and evicted
// keys stop deduplicating.
func TestQueueTerminalEviction(t *testing.T) {
	q := openTest(t, Config{KeepTerminal: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		j := mustSubmit(t, q, `{}`, SubmitOptions{IdempotencyKey: fmt.Sprintf("k%d", i)})
		l, ok, _ := leaseNext(t, q)
		if !ok {
			t.Fatal("lease")
		}
		if err := q.CompleteLease(j.ID, "w", l.LeaseToken, nil); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	if _, ok := q.Get(ids[0]); ok {
		t.Error("oldest terminal job not evicted")
	}
	if _, ok := q.Get(ids[3]); !ok {
		t.Error("newest terminal job evicted")
	}
	if _, dup, err := q.Submit(nil, SubmitOptions{IdempotencyKey: "k0"}); err != nil || dup {
		t.Errorf("evicted key still deduplicates: dup=%v err=%v", dup, err)
	}
	if _, dup, _ := q.Submit(nil, SubmitOptions{IdempotencyKey: "k3"}); !dup {
		t.Error("retained key no longer deduplicates")
	}
}

// TestQueueConcurrent hammers the queue from many goroutines — run
// under -race this is the data-race check. Compacting every few records
// swaps the journal's append handle under concurrent group commits.
func TestQueueConcurrent(t *testing.T) {
	q := openTest(t, Config{Dir: t.TempDir(), Capacity: 1024})
	q.compactAfter = 7
	const producers, perProducer = 4, 25
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if _, _, err := q.Submit(json.RawMessage(`{}`), SubmitOptions{Priority: i % 3}); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	var done sync.WaitGroup
	var finished atomic.Int64
	for c := 0; c < 2; c++ {
		done.Add(1)
		go func(c int) {
			defer done.Done()
			owner := fmt.Sprintf("w%d", c)
			for finished.Load() < producers*perProducer {
				j, ok, err := q.Lease(owner, time.Minute)
				if err != nil {
					t.Error(err)
					return
				}
				if !ok {
					continue
				}
				if _, err := q.Heartbeat(j.ID, owner, j.LeaseToken, time.Minute); err != nil {
					t.Error(err)
					return
				}
				if err := q.CompleteLease(j.ID, owner, j.LeaseToken, nil); err != nil {
					t.Error(err)
					return
				}
				finished.Add(1)
			}
		}(c)
	}
	wg.Wait()
	done.Wait()
	st := q.StatsSnapshot()
	if st.Done != producers*perProducer || st.Pending != 0 || st.Running != 0 {
		t.Fatalf("final stats %+v", st)
	}
}

// TestQueueMetrics: RegisterMetrics exposes gauges reading live queue
// state, cumulative counters and WAL latency histograms.
func TestQueueMetrics(t *testing.T) {
	r := metrics.NewRegistry()
	q := openTest(t, Config{})
	q.RegisterMetrics(r)

	mustSubmit(t, q, `{"n":1}`, SubmitOptions{IdempotencyKey: "k1"})
	mustSubmit(t, q, `{"n":2}`, SubmitOptions{})
	if _, dup, err := q.Submit(json.RawMessage(`{"n":1}`), SubmitOptions{IdempotencyKey: "k1"}); err != nil || !dup {
		t.Fatalf("dup submit: dup=%v err=%v", dup, err)
	}
	if _, ok, err := leaseNext(t, q); err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"dramdig_queue_depth 1",
		"dramdig_queue_running 1",
		"dramdig_queue_submitted_total 2",
		"dramdig_queue_deduped_total 1",
		"# TYPE dramdig_wal_fsync_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics render missing %q:\n%s", want, out)
		}
	}
	st := q.StatsSnapshot()
	if st.Submitted != 2 || st.Deduped != 1 {
		t.Fatalf("stats counters: %+v", st)
	}
}

// TestQueueTraceContextPersists: the trace context set at Submit rides
// the job through its lease and — because it lands in the WAL — through a
// process death, so campaign spans stay parented to the originating
// request even across recovery.
func TestQueueTraceContextPersists(t *testing.T) {
	dir := t.TempDir()
	const tp = "00-0102030405060708090a0b0c0d0e0f10-0102030405060708-01"
	q1 := openTest(t, Config{Dir: dir})
	j := mustSubmit(t, q1, `{"n":1}`, SubmitOptions{TraceParent: tp, RequestID: "req-9"})
	if j.TraceParent != tp || j.RequestID != "req-9" {
		t.Fatalf("submit dropped trace context: %+v", j)
	}
	if j.SubmittedUnixNano == 0 {
		t.Fatal("submit did not stamp SubmittedUnixNano")
	}
	got, ok, err := leaseNext(t, q1)
	if err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	if got.TraceParent != tp || got.RequestID != "req-9" {
		t.Fatalf("lease dropped trace context: %+v", got)
	}
	if err := q1.Close(); err != nil {
		t.Fatal(err)
	}

	// The job was in flight at "death"; recovery re-queues it with the
	// trace context intact.
	q2 := openTest(t, Config{Dir: dir})
	rec, ok, err := leaseNext(t, q2)
	if err != nil || !ok {
		t.Fatalf("recovered lease: ok=%v err=%v", ok, err)
	}
	if !rec.Recovered {
		t.Fatalf("job not marked recovered: %+v", rec)
	}
	if rec.TraceParent != tp || rec.RequestID != "req-9" {
		t.Fatalf("recovery dropped trace context: %+v", rec)
	}
	if rec.SubmittedUnixNano != j.SubmittedUnixNano {
		t.Fatalf("recovery changed SubmittedUnixNano: %d != %d",
			rec.SubmittedUnixNano, j.SubmittedUnixNano)
	}
}
