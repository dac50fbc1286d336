// Kill-and-restart integration test for the durable queue subsystem:
// a daemon dies mid-campaign and its successor — same -queue-dir, same
// -cache-dir — finishes everything exactly once, with results identical
// to a run that was never interrupted. Run in CI as
// `go test -run TestRecovery -race ./cmd/dramdigd`.

package main

import (
	"context"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"dramdig/internal/campaign"
	"dramdig/internal/queue"
	"dramdig/internal/store"
)

// recoveryRequests are the three campaigns under test: disjoint machine
// sets, so cross-campaign result caching cannot mask a lost campaign.
var recoveryRequests = []string{
	`{"machines":[1,4],"seed":5}`,
	`{"machines":[7,8],"seed":6}`,
	`{"generated":2,"seed":9}`,
}

// fingerprintsOf extracts each job's mapping fingerprint from a final
// campaign response, in job order.
func fingerprintsOf(t *testing.T, final map[string]any) []string {
	t.Helper()
	rep, ok := final["report"].(map[string]any)
	if !ok {
		t.Fatalf("campaign response has no report: %v", final)
	}
	jobs, _ := rep["jobs"].([]any)
	out := make([]string, 0, len(jobs))
	for _, j := range jobs {
		jm := j.(map[string]any)
		if jm["ok"] != true {
			t.Fatalf("job not ok in report: %v", jm)
		}
		out = append(out, jm["mapping_fingerprint"].(string))
	}
	return out
}

func submitAll(t *testing.T, srv *server, key1 string) []string {
	t.Helper()
	ids := make([]string, 0, len(recoveryRequests))
	for i, body := range recoveryRequests {
		hdr := map[string]string{}
		if i == 0 && key1 != "" {
			hdr["Idempotency-Key"] = key1
		}
		w, m := postJSON(t, srv, "POST", "/v1/campaigns", body, hdr)
		if w.Code != http.StatusAccepted {
			t.Fatalf("POST %d: %d %v", i, w.Code, m)
		}
		ids = append(ids, m["id"].(string))
	}
	return ids
}

// TestRecoveryKillRestart: submit three campaigns, kill the daemon
// after the second campaign's first job completes (its result in the
// store, the daemon never cleanly shut down), restart over the same
// queue and cache directories, and require all three campaigns to
// finish exactly once with the fingerprints an uninterrupted daemon
// produces — the resumed campaign serving its finished job from the
// result store. Also proves Idempotency-Key dedup across the restart.
func TestRecoveryKillRestart(t *testing.T) {
	queueDir, cacheDir := t.TempDir(), t.TempDir()

	// Baseline: an uninterrupted daemon over the same three requests.
	baseline := newTestServerWith(t, queue.Config{}, serverConfig{maxRunning: 1})
	var want [][]string
	for _, id := range submitAll(t, baseline, "") {
		final := waitDone(t, baseline, id)
		if final["status"] != "done" {
			t.Fatalf("baseline campaign %s: %v", id, final["status"])
		}
		want = append(want, fingerprintsOf(t, final))
	}

	// Life 1: durable queue + disk store; dies mid-campaign-2.
	st1, err := store.Open(store.Config{Dir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	q1, err := queue.Open(queue.Config{Dir: queueDir})
	if err != nil {
		t.Fatal(err)
	}
	ctx1, kill := context.WithCancel(context.Background())
	defer kill()
	// workers: 1 → jobs inside a campaign run strictly in order, so the
	// kill below interrupts campaign 2 with job 0 done and job 1 not.
	srv1 := newServer(ctx1, st1, q1, serverConfig{workers: 1, maxRunning: 1})

	// The killer: campaigns run one at a time; when the second one
	// reaches its second job — by which point job 0's result is in the
	// store, since a job's result is stored before it counts as done —
	// cancel the base context and block until the cancellation is
	// visible: the in-process equivalent of kill -9 (no queue Close, no
	// compaction).
	var invocation atomic.Int64
	killed := make(chan struct{})
	setRunner(srv1, func(ctx context.Context, specs []campaign.Spec, cfg campaign.Config) (*campaign.Report, error) {
		if invocation.Add(1) == 2 {
			innerWrap := cfg.Wrap
			var jobs atomic.Int64
			cfg.Wrap = func(wctx context.Context, spec campaign.Spec, run func() campaign.Outcome) campaign.Outcome {
				if jobs.Add(1) == 2 {
					close(killed)
					kill()
					<-ctx.Done()
				}
				return innerWrap(wctx, spec, run)
			}
		}
		return campaign.Run(ctx, specs, cfg)
	})

	ids := submitAll(t, srv1, "recovery-sweep")
	select {
	case <-killed:
	case <-time.After(120 * time.Second):
		t.Fatal("the kill trigger never fired")
	}
	srv1.drain()
	// No q1.Close(): a crash never compacts. Every accepted record is
	// already fsync'd in the WAL.

	// Life 2: a fresh daemon over the same directories picks the work
	// back up.
	st2, err := store.Open(store.Config{Dir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := queue.Open(queue.Config{Dir: queueDir})
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	t.Cleanup(cancel2)
	srv2 := newServer(ctx2, st2, q2, serverConfig{workers: 2, maxRunning: 1})

	var cachedJobs float64
	for i, id := range ids {
		final := waitDone(t, srv2, id)
		if final["status"] != "done" {
			t.Fatalf("campaign %s after restart: %v (%v)", id, final["status"], final["err"])
		}
		got := fingerprintsOf(t, final)
		if len(got) != len(want[i]) {
			t.Fatalf("campaign %s: %d jobs after recovery, want %d", id, len(got), len(want[i]))
		}
		for j := range got {
			if got[j] != want[i][j] {
				t.Errorf("campaign %s job %d: fingerprint %s, want %s (diverged from uninterrupted run)",
					id, j, got[j], want[i][j])
			}
		}
		if rep, ok := final["report"].(map[string]any); ok {
			c, _ := rep["cached"].(float64)
			cachedJobs += c
		}
	}
	// The interrupted campaign had one finished job; the restarted daemon
	// must have served it from the store rather than recomputing. The
	// machine sets are disjoint, so no other job can hit.
	if cachedJobs < 1 {
		t.Error("no job was served from the store after the restart")
	}

	// Exactly once: the queue holds exactly the three campaigns, all
	// done, none duplicated by recovery.
	qs := q2.StatsSnapshot()
	if qs.Done != len(ids) || qs.Pending != 0 || qs.Running != 0 || qs.Failed != 0 {
		t.Fatalf("queue after recovery: %+v", qs)
	}

	// Idempotency keys survive the restart: resubmitting campaign 1's
	// key replays the finished campaign instead of enqueueing a fourth.
	w, m := postJSON(t, srv2, "POST", "/v1/campaigns", recoveryRequests[0],
		map[string]string{"Idempotency-Key": "recovery-sweep"})
	if w.Code != http.StatusAccepted || m["id"] != ids[0] {
		t.Fatalf("idempotent resubmit after restart: %d %v, want replay of %s", w.Code, m, ids[0])
	}
	if w.Header().Get("Idempotency-Replayed") != "true" {
		t.Error("resubmit after restart not marked as a replay")
	}
	if got := q2.StatsSnapshot().Done + q2.StatsSnapshot().Pending; got != len(ids) {
		t.Errorf("resubmit created new work: %d jobs retained, want %d", got, len(ids))
	}
}

// TestRecoveryReportSurvivesRestart: a campaign finished before the
// restart keeps serving its full report from the queue's terminal
// record, without any in-memory state from the process that ran it.
func TestRecoveryReportSurvivesRestart(t *testing.T) {
	queueDir := t.TempDir()
	st1, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	q1, err := queue.Open(queue.Config{Dir: queueDir})
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	srv1 := newServer(ctx1, st1, q1, serverConfig{workers: 2, maxRunning: defaultMaxRunning})

	w, m := postJSON(t, srv1, "POST", "/v1/campaigns", `{"machines":[4],"seed":3}`, nil)
	if w.Code != http.StatusAccepted {
		t.Fatalf("POST: %d %v", w.Code, m)
	}
	id := m["id"].(string)
	final := waitDone(t, srv1, id)
	if final["status"] != "done" {
		t.Fatalf("campaign: %v", final)
	}
	wantFPs := fingerprintsOf(t, final)
	cancel1()
	srv1.drain()
	if err := q1.Close(); err != nil { // clean shutdown this time
		t.Fatal(err)
	}

	st2, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := queue.Open(queue.Config{Dir: queueDir})
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	t.Cleanup(cancel2)
	srv2 := newServer(ctx2, st2, q2, serverConfig{workers: 2, maxRunning: defaultMaxRunning})
	t.Cleanup(func() { q2.Close() })

	code, m2 := doJSON(t, srv2, "GET", "/v1/campaigns/"+id, "")
	if code != http.StatusOK || m2["status"] != "done" {
		t.Fatalf("GET after restart: %d %v", code, m2)
	}
	gotFPs := fingerprintsOf(t, m2)
	if len(gotFPs) != len(wantFPs) || gotFPs[0] != wantFPs[0] {
		t.Fatalf("recovered report fingerprints %v, want %v", gotFPs, wantFPs)
	}
}
