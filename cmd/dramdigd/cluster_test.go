// Tests for the cluster subsystem's coordinator side: the lease
// protocol's happy path and fencing edge cases, a real campaign run by
// real remote workers (fingerprints identical to a local run, span
// tree crossing the process boundary), worker death mid-campaign
// (TestRecoveryKillWorker — the CI recovery suite picks it up by
// name), and drain semantics for leases already out.

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dramdig/internal/campaign"
	"dramdig/internal/cluster"
	"dramdig/internal/machine"
	"dramdig/internal/metrics"
	"dramdig/internal/obs"
	"dramdig/internal/queue"
	"dramdig/internal/store"
	"dramdig/internal/trace"
)

// clusterReq issues a request and returns the raw recorder — unlike
// doJSON it tolerates bodyless responses (204 from an empty lease).
func clusterReq(t *testing.T, srv http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	r := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	return w
}

// leaseAs asks for the next lease as the named worker: (grant, true)
// on a grant, (zero, false) on 204, test failure on anything else.
func leaseAs(t *testing.T, srv http.Handler, worker string) (cluster.LeaseGrant, bool) {
	t.Helper()
	w := clusterReq(t, srv, "POST", "/v1/cluster/lease", fmt.Sprintf(`{"worker":%q}`, worker))
	if w.Code == http.StatusNoContent {
		return cluster.LeaseGrant{}, false
	}
	if w.Code != http.StatusOK {
		t.Fatalf("lease as %s: %d %s", worker, w.Code, w.Body.String())
	}
	var g cluster.LeaseGrant
	if err := json.Unmarshal(w.Body.Bytes(), &g); err != nil {
		t.Fatalf("lease grant: %v (%s)", err, w.Body.String())
	}
	return g, true
}

// TestClusterLeaseProtocol drives the lease API at the handler level:
// grant shape, single-ownership, token fencing on heartbeat, complete
// and fail, and the worker registry rows it all leaves behind.
func TestClusterLeaseProtocol(t *testing.T) {
	srv := newTestServerWith(t, queue.Config{}, serverConfig{})

	// Nothing queued: no grant.
	if _, ok := leaseAs(t, srv, "w1"); ok {
		t.Fatal("leased a job from an empty queue")
	}

	_, m := postJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[1],"seed":3}`, nil)
	id := m["id"].(string)
	if status, _ := m["status"].(string); status != "queued" {
		t.Fatalf("remote-dispatch submission status %q, want queued", status)
	}

	g, ok := leaseAs(t, srv, "w1")
	if !ok {
		t.Fatal("no grant for a queued campaign")
	}
	if g.ID != id || g.Token == "" || g.Attempts != 1 || g.TTLMillis <= 0 || len(g.Payload) == 0 {
		t.Fatalf("grant malformed: %+v", g)
	}

	// The job is held: a second worker gets nothing (no double lease).
	if g2, ok := leaseAs(t, srv, "w2"); ok {
		t.Fatalf("leased job held by w1 to w2: %+v", g2)
	}

	// Heartbeats are fenced by the token and the job ID.
	code, em := doJSON(t, srv, "POST", "/v1/cluster/jobs/"+id+"/heartbeat",
		`{"worker":"w1","token":"deadbeefdeadbeef"}`)
	if code != http.StatusConflict {
		t.Fatalf("stale-token heartbeat: %d %v, want 409", code, em)
	}
	envelope(t, em, codeLeaseLost)
	code, em = doJSON(t, srv, "POST", "/v1/cluster/jobs/c999/heartbeat",
		fmt.Sprintf(`{"worker":"w1","token":%q}`, g.Token))
	if code != http.StatusNotFound {
		t.Fatalf("unknown-job heartbeat: %d %v, want 404", code, em)
	}
	code, hb := doJSON(t, srv, "POST", "/v1/cluster/jobs/"+id+"/heartbeat",
		fmt.Sprintf(`{"worker":"w1","token":%q}`, g.Token))
	if code != http.StatusOK {
		t.Fatalf("heartbeat: %d %v", code, hb)
	}
	if ttl, _ := hb["ttl_ms"].(float64); ttl <= 0 {
		t.Fatalf("heartbeat renewed ttl_ms %v, want > 0", hb["ttl_ms"])
	}

	// Completion and failure are fenced the same way — by token and by
	// owner, so a worker the lease moved away from cannot corrupt state.
	code, em = doJSON(t, srv, "POST", "/v1/cluster/jobs/"+id+"/complete",
		`{"worker":"w1","token":"deadbeefdeadbeef","report":{"total":1}}`)
	if code != http.StatusConflict {
		t.Fatalf("stale-token complete: %d %v, want 409", code, em)
	}
	envelope(t, em, codeLeaseLost)
	code, em = doJSON(t, srv, "POST", "/v1/cluster/jobs/"+id+"/fail",
		fmt.Sprintf(`{"worker":"w2","token":%q,"error":"not mine"}`, g.Token))
	if code != http.StatusConflict {
		t.Fatalf("wrong-owner fail: %d %v, want 409", code, em)
	}

	code, cm := doJSON(t, srv, "POST", "/v1/cluster/jobs/"+id+"/complete",
		fmt.Sprintf(`{"worker":"w1","token":%q,"report":{"total":1,"succeeded":1,"jobs":[]}}`, g.Token))
	if code != http.StatusOK {
		t.Fatalf("complete: %d %v", code, cm)
	}
	code, fm := doJSON(t, srv, "GET", "/v1/campaigns/"+id, "")
	if code != http.StatusOK || fm["status"] != "done" {
		t.Fatalf("campaign after remote completion: %d %v", code, fm)
	}
	if rep, _ := fm["report"].(map[string]any); rep == nil || rep["total"] != float64(1) {
		t.Fatalf("campaign report not the worker's: %v", fm["report"])
	}

	// The terminal state is sticky: a duplicate completion is rejected.
	code, em = doJSON(t, srv, "POST", "/v1/cluster/jobs/"+id+"/complete",
		fmt.Sprintf(`{"worker":"w1","token":%q,"report":{"total":1}}`, g.Token))
	if code != http.StatusConflict {
		t.Fatalf("duplicate complete: %d %v, want 409", code, em)
	}
	envelope(t, em, codeLeaseLost)

	// The registry remembers both workers; only w1 completed anything.
	code, wm := doJSON(t, srv, "GET", "/v1/workers", "")
	if code != http.StatusOK || wm["dispatch"] != "remote" {
		t.Fatalf("GET /v1/workers: %d %v", code, wm)
	}
	rows, _ := wm["workers"].([]any)
	byName := map[string]map[string]any{}
	for _, r := range rows {
		rm := r.(map[string]any)
		byName[rm["name"].(string)] = rm
	}
	w1 := byName["w1"]
	if w1 == nil || w1["completed"] != float64(1) || w1["active_leases"] != float64(0) || w1["live"] != true {
		t.Fatalf("w1 registry row: %v", w1)
	}
	if byName["w2"] == nil {
		t.Fatalf("w2 never registered: %v", rows)
	}
}

// TestClusterLeaseExpiry covers the edge cases around a lapsed lease:
// the sweeper requeues the job, a second worker gets it under a fresh
// token, and every call from the original owner — heartbeat, complete
// — bounces off the fence without corrupting queue state.
func TestClusterLeaseExpiry(t *testing.T) {
	srv := newTestServerWith(t, queue.Config{}, serverConfig{
		leaseTTL: 250 * time.Millisecond,
	})
	_, m := postJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[1],"seed":3}`, nil)
	id := m["id"].(string)

	g1, ok := leaseAs(t, srv, "w1")
	if !ok {
		t.Fatal("no grant for w1")
	}

	// w1 goes silent; the sweeper must requeue and w2 must get the job.
	var g2 cluster.LeaseGrant
	deadline := time.Now().Add(10 * time.Second)
	for {
		if g2, ok = leaseAs(t, srv, "w2"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("lease never expired onto w2")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if g2.ID != id || g2.Token == g1.Token || g2.Attempts < 2 {
		t.Fatalf("re-grant malformed: %+v (first token %s)", g2, g1.Token)
	}

	// Everything from the dead worker is fenced off.
	code, em := doJSON(t, srv, "POST", "/v1/cluster/jobs/"+id+"/heartbeat",
		fmt.Sprintf(`{"worker":"w1","token":%q}`, g1.Token))
	if code != http.StatusConflict {
		t.Fatalf("heartbeat after expiry: %d %v, want 409", code, em)
	}
	envelope(t, em, codeLeaseLost)
	code, em = doJSON(t, srv, "POST", "/v1/cluster/jobs/"+id+"/complete",
		fmt.Sprintf(`{"worker":"w1","token":%q,"report":{"total":1}}`, g1.Token))
	if code != http.StatusConflict {
		t.Fatalf("complete from stale worker: %d %v, want 409", code, em)
	}
	envelope(t, em, codeLeaseLost)

	// The fence protected w2's lease: its completion lands normally.
	code, cm := doJSON(t, srv, "POST", "/v1/cluster/jobs/"+id+"/complete",
		fmt.Sprintf(`{"worker":"w2","token":%q,"report":{"total":1,"succeeded":1,"jobs":[]}}`, g2.Token))
	if code != http.StatusOK {
		t.Fatalf("complete from w2: %d %v", code, cm)
	}
	qs := srv.q.StatsSnapshot()
	if qs.Done != 1 || qs.Pending != 0 || qs.Failed != 0 {
		t.Fatalf("queue state corrupted: %+v", qs)
	}
	if qs.Expired < 1 {
		t.Fatalf("no lease expiry recorded: %+v", qs)
	}
	// The metrics page reads the same count from the queue.
	if want := fmt.Sprintf("dramdig_cluster_leases_expired_total %d\n", qs.Expired); !strings.Contains(scrape(t, srv, "/v1/metrics"), want) {
		t.Errorf("metrics page lacks %q", want)
	}
}

// startWorker runs a cluster worker against the coordinator URL until
// the returned stop function is called (it blocks until the worker has
// exited).
func startWorker(t *testing.T, url, name string, jobs int) (w *cluster.Worker, stop func()) {
	t.Helper()
	w = cluster.NewWorker(cluster.NewClient(url, name, nil), cluster.WorkerConfig{
		Workers: jobs,
		Poll:    10 * time.Millisecond,
		Tracer:  obs.NewTracer(obs.Config{Capacity: 1024}),
		Metrics: metrics.NewRegistry(),
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(ctx)
	}()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			cancel()
			<-done
		})
	}
	t.Cleanup(stop)
	return w, stop
}

// TestClusterRemoteCampaign is the acceptance test for the tentpole: a
// campaign submitted to a remote-dispatch coordinator is executed by
// real worker processes (in-process goroutines over real HTTP), the
// result fingerprints are identical to a local run, and the span tree
// served by the coordinator contains both its own and the workers'
// spans under the client's inbound trace ID.
func TestClusterRemoteCampaign(t *testing.T) {
	const body = `{"machines":[1,4],"seed":5}`

	// Baseline: the same campaign on a plain local daemon.
	base := newTestServerWith(t, queue.Config{}, serverConfig{maxRunning: defaultMaxRunning})
	_, bm := postJSON(t, base, "POST", "/v1/campaigns", body, nil)
	want := fingerprintsOf(t, waitDone(t, base, bm["id"].(string)))

	srv := newTestServerWith(t, queue.Config{}, serverConfig{
		tracer: obs.NewTracer(obs.Config{Capacity: 4096}),
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	startWorker(t, ts.URL, "alpha", 2)
	startWorker(t, ts.URL, "beta", 2)

	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	_, m := postJSON(t, srv, "POST", "/v1/campaigns", body, map[string]string{
		obs.TraceParentHeader: "00-" + traceID + "-00f067aa0ba902b7-01",
	})
	id := m["id"].(string)
	final := waitDone(t, srv, id)
	if final["status"] != "done" {
		t.Fatalf("remote campaign: %v", final)
	}
	got := fingerprintsOf(t, final)
	if len(got) != len(want) {
		t.Fatalf("remote fingerprints %v, local %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("fingerprint %d: remote %s, local %s", i, got[i], want[i])
		}
	}

	// The remotely computed results are served like local ones.
	for _, fp := range mustSpecFingerprints(t, body) {
		if code, _ := doJSON(t, srv, "GET", "/v1/mappings/"+fp, ""); code != http.StatusOK {
			t.Fatalf("GET /v1/mappings/%s: %d", fp, code)
		}
	}

	// One span tree, one trace ID, spans from both processes: the
	// coordinator's handoff (scheduler.dispatch) and the worker's
	// campaign run (campaign.run, campaign.job) under the inbound trace.
	code, tree := doJSON(t, srv, "GET", "/v1/campaigns/"+id+"/spans", "")
	if code != http.StatusOK || tree["trace_id"] != traceID {
		t.Fatalf("GET spans: %d %v, want trace %s", code, tree, traceID)
	}
	roots := []map[string]any{}
	if raw, ok := tree["spans"].([]any); ok {
		for _, n := range raw {
			if nm, ok := n.(map[string]any); ok {
				roots = append(roots, nm)
			}
		}
	}
	names := map[string]bool{}
	treeNames(roots, names)
	for _, wantSpan := range []string{"queue.wait", "scheduler.dispatch", "campaign.run", "campaign.job"} {
		if !names[wantSpan] {
			t.Errorf("span tree missing %q (have %v)", wantSpan, names)
		}
	}
	tids := map[string]bool{}
	treeTraceIDs(roots, tids)
	if len(tids) != 1 || !tids[traceID] {
		t.Errorf("span tree mixes trace IDs: %v", tids)
	}

	// Between them the two workers completed the campaign exactly once,
	// and every registry row reports liveness as a heartbeat age.
	_, wm := doJSON(t, srv, "GET", "/v1/workers", "")
	var completed float64
	var winner map[string]any
	rows, _ := wm["workers"].([]any)
	for _, r := range rows {
		rm := r.(map[string]any)
		completed += rm["completed"].(float64)
		if rm["completed"].(float64) > 0 {
			winner = rm
		}
		if age, ok := rm["last_heartbeat_age_ms"].(float64); !ok || age < 0 {
			t.Errorf("worker %v last_heartbeat_age_ms = %v, want >= 0", rm["name"], rm["last_heartbeat_age_ms"])
		}
		if _, stale := rm["last_seen_unix"]; stale {
			t.Errorf("worker row still carries last_seen_unix: %v", rm)
		}
	}
	if completed != 1 {
		t.Errorf("workers completed %v campaigns, want exactly 1: %v", completed, wm)
	}

	// The completing worker shipped metrics snapshots (heartbeats and the
	// completion); its /v1/workers row digests the latest one and the
	// federated page serves its families instance-labeled.
	if winner == nil {
		t.Fatal("no worker completed the campaign")
	}
	digest, _ := winner["metrics"].(map[string]any)
	if digest == nil {
		t.Fatalf("completing worker %v has no metrics digest", winner["name"])
	}
	if digest["engine_samples"].(float64) <= 0 || digest["goroutines"].(float64) < 1 {
		t.Fatalf("metrics digest implausible: %v", digest)
	}
	fedPage := clusterReq(t, srv, "GET", "/v1/cluster/metrics", "")
	if fedPage.Code != http.StatusOK {
		t.Fatalf("GET /v1/cluster/metrics: %d", fedPage.Code)
	}
	if ct := fedPage.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("federated page content type %q", ct)
	}
	page := fedPage.Body.String()
	instanceSample := fmt.Sprintf(`dramdig_engine_samples_total{instance=%q}`, winner["name"])
	if !strings.Contains(page, instanceSample) {
		t.Errorf("federated page missing %s:\n%s", instanceSample, page)
	}
	for _, fam := range []string{"dramdig_go_goroutines{instance=", "dramdig_worker_completed_total{instance="} {
		if !strings.Contains(page, fam) {
			t.Errorf("federated page missing %s family", fam)
		}
	}

	// The campaign timeline merges queue history with spans from both
	// processes, chronologically ordered, each event naming its worker.
	code, tl := doJSON(t, srv, "GET", "/v1/campaigns/"+id+"/timeline", "")
	if code != http.StatusOK || tl["trace_id"] != traceID {
		t.Fatalf("GET timeline: %d %v", code, tl)
	}
	events, _ := tl["events"].([]any)
	if len(events) == 0 {
		t.Fatal("timeline is empty")
	}
	var last float64
	sources := map[string]bool{}
	types := map[string]bool{}
	workerSpanned := false
	for i, e := range events {
		em := e.(map[string]any)
		at := em["at_unix_nano"].(float64)
		if at < last {
			t.Fatalf("timeline not chronological at %d: %v", i, events)
		}
		last = at
		sources[em["source"].(string)] = true
		types[em["type"].(string)] = true
		if em["source"] == "span" && (em["worker"] == "alpha" || em["worker"] == "beta") {
			workerSpanned = true
		}
		if em["type"] == "leased" && em["worker"] != winner["name"] {
			t.Errorf("leased event attributes wrong worker: %v", em)
		}
	}
	if !sources["queue"] || !sources["span"] {
		t.Errorf("timeline sources = %v, want both queue and span", sources)
	}
	for _, wantType := range []string{"submitted", "leased", "done", "span.start", "span.end"} {
		if !types[wantType] {
			t.Errorf("timeline missing %q event (have %v)", wantType, types)
		}
	}
	if !workerSpanned {
		t.Error("no span event attributed to a worker process")
	}
	if tl["total"].(float64) != float64(len(events)) || tl["truncated"].(bool) {
		t.Errorf("timeline total/truncated bookkeeping: %v %v", tl["total"], tl["truncated"])
	}

	// Unknown campaigns 404 like every other campaign endpoint.
	if code, _ := doJSON(t, srv, "GET", "/v1/campaigns/c999/timeline", ""); code != http.StatusNotFound {
		t.Errorf("timeline for unknown campaign: %d, want 404", code)
	}
}

// TestClusterMetricsFederation drives snapshot shipping at the handler
// level: a heartbeat carrying a real registry snapshot lands in the
// federation, the /v1/workers row digests it, and a worker reaped for
// silence takes its samples off the federated page.
func TestClusterMetricsFederation(t *testing.T) {
	srv := newTestServerWith(t, queue.Config{}, serverConfig{})
	_, m := postJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[1],"seed":3}`, nil)
	id := m["id"].(string)
	g, ok := leaseAs(t, srv, "w1")
	if !ok {
		t.Fatal("no grant")
	}

	reg := metrics.NewRegistry()
	reg.Counter("fed_probe_total", "Probe.", metrics.Labels{"instance": "self"}).Add(5)
	metrics.RegisterRuntime(reg)
	snap, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	code, _ := doJSON(t, srv, "POST", "/v1/cluster/jobs/"+id+"/heartbeat",
		fmt.Sprintf(`{"worker":"w1","token":%q,"metrics":%s}`, g.Token, snap))
	if code != http.StatusOK {
		t.Fatalf("metrics-bearing heartbeat: %d", code)
	}

	page := clusterReq(t, srv, "GET", "/v1/cluster/metrics", "").Body.String()
	// The worker's own "instance" label is preserved as
	// exported_instance; the injected one names the worker.
	if !strings.Contains(page, `fed_probe_total{exported_instance="self",instance="w1"} 5`) {
		t.Fatalf("federated page missing relabeled probe:\n%s", page)
	}
	if !strings.Contains(page, `dramdig_go_goroutines{instance="w1"}`) {
		t.Fatalf("federated page missing runtime self-metrics:\n%s", page)
	}

	_, wm := doJSON(t, srv, "GET", "/v1/workers", "")
	rows, _ := wm["workers"].([]any)
	if len(rows) != 1 {
		t.Fatalf("worker rows: %v", wm)
	}
	row := rows[0].(map[string]any)
	digest, _ := row["metrics"].(map[string]any)
	if digest == nil || digest["families"].(float64) < 2 || digest["goroutines"].(float64) < 1 {
		t.Fatalf("worker metrics digest: %v", row)
	}

	// A malformed snapshot is ignored, never an error.
	code, _ = doJSON(t, srv, "POST", "/v1/cluster/jobs/"+id+"/heartbeat",
		fmt.Sprintf(`{"worker":"w1","token":%q,"metrics":{"families":"nonsense"}}`, g.Token))
	if code != http.StatusOK {
		t.Fatalf("heartbeat with bad snapshot: %d, want 200", code)
	}

	// Reaping the worker (silent, no active leases) drops its samples.
	if err := srv.q.CompleteLease(id, "w1", g.Token, nil); err != nil {
		t.Fatal(err)
	}
	srv.cl.adjust("w1", func(wi *workerInfo) {
		wi.lastSeen = time.Now().Add(-time.Hour)
	})
	srv.cl.reap(time.Now(), time.Minute, srv.q.LeasesByOwner())
	page = clusterReq(t, srv, "GET", "/v1/cluster/metrics", "").Body.String()
	if strings.Contains(page, "fed_probe_total") {
		t.Fatalf("reaped worker still on the federated page:\n%s", page)
	}
}

// TestClusterMetricsRefusesForgedSnapshot: a heartbeat whose metrics
// payload carries a family name, a kind or a label name with exposition
// syntax in it still renews the lease, but the snapshot is refused
// whole — no forged sample reaches the federated page, not even one
// without an instance label posing as a coordinator series — and it is
// not counted as accepted.
func TestClusterMetricsRefusesForgedSnapshot(t *testing.T) {
	srv := newTestServerWith(t, queue.Config{}, serverConfig{})
	_, m := postJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[1],"seed":3}`, nil)
	id := m["id"].(string)
	g, ok := leaseAs(t, srv, "w1")
	if !ok {
		t.Fatal("no grant")
	}
	beat := func(snap string) {
		t.Helper()
		code, _ := doJSON(t, srv, "POST", "/v1/cluster/jobs/"+id+"/heartbeat",
			fmt.Sprintf(`{"worker":"w1","token":%q,"metrics":%s}`, g.Token, snap))
		if code != http.StatusOK {
			t.Fatalf("heartbeat: %d, want 200", code)
		}
	}
	beat(`{"families":[{"name":"real_total","kind":"counter","children":[{"value":1}]}]}`)
	beat(`{"families":[` +
		`{"name":"x 1\nforged2_total","kind":"counter","children":[{"value":1}]},` +
		`{"name":"y_total","kind":"counter\nforged3_total 7","children":[{"value":1}]},` +
		`{"name":"z_total","kind":"counter","children":[{"labels":{"a\"} 1\nforged_total{x=\"":"v"},"value":1}]}]}`)

	page := clusterReq(t, srv, "GET", "/v1/cluster/metrics", "").Body.String()
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, "forged") {
			t.Errorf("forged line on the federated page: %q", line)
		}
	}
	if !strings.Contains(page, `real_total{instance="w1"} 1`) {
		t.Errorf("refused snapshot dropped the worker's previous one:\n%s", page)
	}
	own := clusterReq(t, srv, "GET", "/v1/metrics", "").Body.String()
	if !strings.Contains(own, "dramdig_cluster_metric_snapshots_total 1\n") {
		t.Errorf("accepted-snapshot count is not 1:\n%s", own)
	}
}

// mustSpecFingerprints resolves a campaign request body to its machine
// fingerprints via the same deterministic spec builder both sides use.
func mustSpecFingerprints(t *testing.T, body string) []string {
	t.Helper()
	var req cluster.CampaignRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	specs, err := cluster.BuildSpecs(req, req.Seed)
	if err != nil {
		t.Fatal(err)
	}
	fps := make([]string, len(specs))
	for i, s := range specs {
		fps[i] = s.MachineFingerprint()
	}
	return fps
}

// killSwitch simulates a worker dying at the worst moment. The victim's
// first job_finished progress event passes through — by then that
// job's result is in the coordinator's store — and then the victim is
// killed. The event always precedes the completion call, so the victim
// never completes its job, and once dead, none of its calls reach the
// coordinator again.
type killSwitch struct {
	next   http.Handler
	victim string
	kill   context.CancelFunc

	mu     sync.Mutex
	killed bool
}

func (k *killSwitch) tripped() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.killed
}

// trip marks the victim dead, cancelling its context exactly once.
func (k *killSwitch) trip() {
	k.mu.Lock()
	defer k.mu.Unlock()
	if !k.killed {
		k.killed = true
		k.kill()
	}
}

func (k *killSwitch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == "POST" && strings.HasPrefix(r.URL.Path, "/v1/cluster/") {
		data, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(data))
		var body cluster.ProgressRequest
		_ = json.Unmarshal(data, &body)
		if body.Worker == k.victim {
			if k.tripped() {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprint(w, `{"error":{"code":"unavailable","message":"connection lost"}}`)
				return
			}
			if body.Event.Kind == campaign.EventJobFinished {
				// Let the event land first, then kill.
				defer k.trip()
			}
		}
	}
	k.next.ServeHTTP(w, r)
}

// TestRecoveryKillWorker: kill one of the cluster workers mid-campaign
// and require the campaign to still complete exactly once, with result
// fingerprints identical to an uninterrupted local run. The victim's
// lease must expire and requeue the job for the surviving worker, which
// serves the victim's finished job from the result store instead of
// redoing the work.
// Named into the TestRecovery suite so CI runs it under -race.
func TestRecoveryKillWorker(t *testing.T) {
	const body = `{"machines":[1,4,7],"seed":5,"workers":1}`

	base := newTestServerWith(t, queue.Config{}, serverConfig{maxRunning: 1})
	_, bm := postJSON(t, base, "POST", "/v1/campaigns", body, nil)
	want := fingerprintsOf(t, waitDone(t, base, bm["id"].(string)))

	srv := newTestServerWith(t, queue.Config{}, serverConfig{
		leaseTTL: 300 * time.Millisecond,
	})
	vctx, vcancel := context.WithCancel(context.Background())
	t.Cleanup(vcancel)
	ks := &killSwitch{next: srv, victim: "casualty", kill: vcancel}
	ts := httptest.NewServer(ks)
	t.Cleanup(ts.Close)

	// The victim leases the campaign first; the kill switch ends it the
	// moment its first job_finished event lands.
	victim := cluster.NewWorker(cluster.NewClient(ts.URL, "casualty", nil), cluster.WorkerConfig{
		Workers: 1,
		Poll:    10 * time.Millisecond,
	})
	vdone := make(chan struct{})
	go func() {
		defer close(vdone)
		_ = victim.Run(vctx)
	}()

	_, m := postJSON(t, srv, "POST", "/v1/campaigns", body, nil)
	id := m["id"].(string)

	deadline := time.Now().Add(60 * time.Second)
	for !ks.tripped() {
		if time.Now().After(deadline) {
			t.Fatal("kill switch never tripped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	vcancel()
	<-vdone

	// The survivor picks the job up after the lease expires and
	// finishes it.
	startWorker(t, ts.URL, "survivor", 1)
	final := waitDone(t, srv, id)
	if final["status"] != "done" {
		t.Fatalf("campaign after worker death: %v", final)
	}
	got := fingerprintsOf(t, final)
	if len(got) != len(want) {
		t.Fatalf("fingerprints after worker death %v, baseline %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("fingerprint %d: %s, baseline %s", i, got[i], want[i])
		}
	}

	// The victim's partial work was reused, not redone: the survivor
	// served its finished job from the store.
	rep := final["report"].(map[string]any)
	if cached, _ := rep["cached"].(float64); cached < 1 {
		t.Errorf("no work carried across the worker death (cached %v)", cached)
	}

	// Exactly once, through a real expiry.
	qs := srv.q.StatsSnapshot()
	if qs.Done != 1 || qs.Pending != 0 || qs.Failed != 0 {
		t.Fatalf("queue state after worker death: %+v", qs)
	}
	if qs.Expired < 1 {
		t.Fatalf("victim's lease never expired: %+v", qs)
	}
	if n := srv.cl.completions.Value(); n != 1 {
		t.Fatalf("campaign completed %d times, want exactly 1", n)
	}
}

// TestClusterDrainStopsLeases: a draining coordinator refuses new
// leases with 503 + Retry-After but keeps accepting heartbeats and
// completions for leases already out, so in-flight work lands instead
// of being thrown away.
func TestClusterDrainStopsLeases(t *testing.T) {
	srv := newTestServerWith(t, queue.Config{}, serverConfig{})
	for _, body := range []string{`{"machines":[1],"seed":3}`, `{"machines":[4],"seed":3}`} {
		if w, m := postJSON(t, srv, "POST", "/v1/campaigns", body, nil); w.Code != http.StatusAccepted {
			t.Fatalf("POST: %d %v", w.Code, m)
		}
	}
	g, ok := leaseAs(t, srv, "w1")
	if !ok {
		t.Fatal("no grant before drain")
	}

	srv.beginDrain()

	w := clusterReq(t, srv, "POST", "/v1/cluster/lease", `{"worker":"w2"}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("lease during drain: %d %s, want 503", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("draining lease refusal missing Retry-After")
	}
	var em map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &em); err != nil {
		t.Fatalf("draining refusal body: %v", err)
	}
	envelope(t, em, codeDraining)

	// The lease already out drains to completion.
	code, hb := doJSON(t, srv, "POST", "/v1/cluster/jobs/"+g.ID+"/heartbeat",
		fmt.Sprintf(`{"worker":"w1","token":%q}`, g.Token))
	if code != http.StatusOK {
		t.Fatalf("heartbeat during drain: %d %v", code, hb)
	}
	code, cm := doJSON(t, srv, "POST", "/v1/cluster/jobs/"+g.ID+"/complete",
		fmt.Sprintf(`{"worker":"w1","token":%q,"report":{"total":1,"succeeded":1,"jobs":[]}}`, g.Token))
	if code != http.StatusOK {
		t.Fatalf("complete during drain: %d %v", code, cm)
	}
	code, fm := doJSON(t, srv, "GET", "/v1/campaigns/"+g.ID, "")
	if code != http.StatusOK || fm["status"] != "done" {
		t.Fatalf("campaign after drained completion: %d %v", code, fm)
	}
}

// TestClusterCancelLeased: DELETE of a campaign leased to a remote
// worker cancels the job in the queue. The holder's heartbeat and
// completion are fenced off with lease_lost, the campaign ends
// "cancelled", and no completion is counted.
func TestClusterCancelLeased(t *testing.T) {
	srv := newTestServerWith(t, queue.Config{}, serverConfig{})
	_, m := postJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[1],"seed":3}`, nil)
	id := m["id"].(string)
	g, ok := leaseAs(t, srv, "w1")
	if !ok || g.ID != id {
		t.Fatalf("no grant for %s: %+v", id, g)
	}

	code, dm := doJSON(t, srv, "DELETE", "/v1/campaigns/"+id, "")
	if code != http.StatusAccepted || dm["status"] != "cancelling" {
		t.Fatalf("DELETE leased campaign: %d %v", code, dm)
	}

	code, em := doJSON(t, srv, "POST", "/v1/cluster/jobs/"+id+"/heartbeat",
		fmt.Sprintf(`{"worker":"w1","token":%q}`, g.Token))
	if code != http.StatusConflict {
		t.Fatalf("heartbeat after cancel: %d %v, want 409", code, em)
	}
	envelope(t, em, codeLeaseLost)
	code, em = doJSON(t, srv, "POST", "/v1/cluster/jobs/"+id+"/complete",
		fmt.Sprintf(`{"worker":"w1","token":%q,"report":{"total":1,"succeeded":1,"jobs":[]}}`, g.Token))
	if code != http.StatusConflict {
		t.Fatalf("complete after cancel: %d %v, want 409", code, em)
	}
	envelope(t, em, codeLeaseLost)

	if final := doJSONmap(t, srv, "GET", "/v1/campaigns/"+id); final["status"] != "cancelled" {
		t.Fatalf("campaign after cancel: %v", final)
	}
	if job, ok := srv.q.Get(id); !ok || job.State != queue.StateCancelled {
		t.Fatalf("queue job after cancel: ok=%v state=%v", ok, job.State)
	}
	if n := srv.cl.completions.Value(); n != 0 {
		t.Fatalf("completions counter moved to %d for a cancelled campaign", n)
	}
	_, wm := doJSON(t, srv, "GET", "/v1/workers", "")
	if rows, _ := wm["workers"].([]any); len(rows) != 1 || rows[0].(map[string]any)["active_leases"] != float64(0) {
		t.Fatalf("worker registry after cancel: %v", wm)
	}
}

// leaseRunner stands in for campaign.Run on every in-process worker.
// Each run counts as running from its start until it returns, which it
// does when its context ends (a stopped run) or release closes.
type leaseRunner struct {
	running atomic.Int32
	started chan struct{}
	stopped chan struct{}
	release chan struct{}
}

func newLeaseRunner(srv *server) *leaseRunner {
	// Buffered past the runs one test starts, so no run blocks on a
	// signal the test does not read.
	r := &leaseRunner{
		started: make(chan struct{}, 8),
		stopped: make(chan struct{}, 8),
		release: make(chan struct{}),
	}
	setRunner(srv, func(ctx context.Context, specs []campaign.Spec, _ campaign.Config) (*campaign.Report, error) {
		r.running.Add(1)
		defer r.running.Add(-1)
		r.started <- struct{}{}
		select {
		case <-ctx.Done():
			r.stopped <- struct{}{}
			return &campaign.Report{Total: len(specs)}, ctx.Err()
		case <-r.release:
			return &campaign.Report{Total: len(specs), Succeeded: len(specs)}, nil
		}
	})
	return r
}

// await fails the test unless ch delivers within d.
func await(t *testing.T, ch <-chan struct{}, d time.Duration, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(d):
		t.Fatalf("%s after %v", what, d)
	}
}

// expireAll ends every live lease in the queue, as the expiry sweep does
// once a holder misses its heartbeat deadline.
func expireAll(t *testing.T, srv *server) {
	t.Helper()
	lapsed, err := srv.q.ExpireLeases(time.Now().Add(time.Hour))
	if err != nil || len(lapsed) != 1 {
		t.Fatalf("expired %d leases (err %v), want 1", len(lapsed), err)
	}
}

// TestInProcessLeaseExpiry: when the queue expires an in-process lease,
// the holder stops its campaign at once, not at its next heartbeat a
// third of the 30 s lease TTL later.
func TestInProcessLeaseExpiry(t *testing.T) {
	srv := newTestServerWith(t, queue.Config{}, serverConfig{maxRunning: 1, leaseTTL: 30 * time.Second})
	r := newLeaseRunner(srv)
	if code, m := doJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[1]}`); code != http.StatusAccepted {
		t.Fatalf("POST: %d %v", code, m)
	}
	await(t, r.started, 10*time.Second, "campaign not started")
	expireAll(t, srv)
	await(t, r.stopped, 2*time.Second, "expired in-process lease still running")
}

// TestInProcessReleaseRunsOnce: a campaign whose in-process lease
// expired and went to the daemon's other in-process worker runs once,
// not twice: 500 ms after the second grant only one run is left, and
// the campaign completes once.
func TestInProcessReleaseRunsOnce(t *testing.T) {
	srv := newTestServerWith(t, queue.Config{}, serverConfig{maxRunning: 2, leaseTTL: 30 * time.Second})
	r := newLeaseRunner(srv)
	_, m := postJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[1]}`, nil)
	id := m["id"].(string)
	await(t, r.started, 10*time.Second, "campaign not started")
	expireAll(t, srv)
	await(t, r.started, 10*time.Second, "expired campaign not leased again")
	time.Sleep(500 * time.Millisecond)
	if n := r.running.Load(); n != 1 {
		t.Fatalf("campaign running %d times 500 ms after its second grant, want 1", n)
	}
	close(r.release)
	if final := waitDone(t, srv, id); final["status"] != "done" {
		t.Fatalf("campaign after re-lease: %v", final)
	}
	if job, _ := srv.q.Get(id); job.Attempts != 2 || srv.cl.completions.Value() != 1 {
		t.Fatalf("attempts %d, completions %d; want 2 and 1", job.Attempts, srv.cl.completions.Value())
	}
}

// dispatchRun is what one campaign leaves behind: its report with the
// wall-time fields removed, its queue history's lifecycle event types,
// its progress events as a sorted multiset of kind and job index, and
// the store records of its machines.
type dispatchRun struct {
	report   map[string]any
	history  []string
	progress []string
	records  map[string]string
}

func collectRun(t *testing.T, srv *server, id, body string) dispatchRun {
	t.Helper()
	final := waitDone(t, srv, id)
	if final["status"] != "done" {
		t.Fatalf("campaign %s: %v", id, final)
	}
	rep := final["report"].(map[string]any)
	delete(rep, "wall_s")
	for _, j := range rep["jobs"].([]any) {
		delete(j.(map[string]any), "wall_s")
	}
	job, _ := srv.q.Get(id)
	run := dispatchRun{report: rep, records: map[string]string{}}
	for _, ev := range job.History {
		if len(ev.Data) == 0 {
			run.history = append(run.history, ev.Type)
			continue
		}
		// The engine's dispatcher delivers events in completion order,
		// which races across jobs; only the multiset is deterministic.
		var pe campaign.Event
		if err := json.Unmarshal(ev.Data, &pe); err != nil {
			t.Fatalf("progress event %s: %v", ev.Data, err)
		}
		run.progress = append(run.progress, fmt.Sprintf("%s/%d", pe.Kind, pe.Index))
	}
	sort.Strings(run.progress)
	for _, fp := range mustSpecFingerprints(t, body) {
		rec, ok, err := srv.st.Get(fp)
		if err != nil || !ok {
			t.Fatalf("no store record for %s: %v", fp, err)
		}
		r := *rec
		r.CreatedUnix = 0
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		run.records[fp] = string(data)
	}
	return run
}

// TestDispatchModesAgree pins the single execution path: one campaign
// run by the daemon's in-process workers and by a cluster.Worker over
// HTTP gives the same report (apart from wall time), the same queue
// history, the same progress events and the same store records.
func TestDispatchModesAgree(t *testing.T) {
	const body = `{"machines":[1,2],"seed":42}`

	local := newTestServerWith(t, queue.Config{}, serverConfig{maxRunning: defaultMaxRunning})
	_, lm := postJSON(t, local, "POST", "/v1/campaigns", body, nil)
	want := collectRun(t, local, lm["id"].(string), body)

	remote := newTestServerWith(t, queue.Config{}, serverConfig{})
	ts := httptest.NewServer(remote)
	t.Cleanup(ts.Close)
	startWorker(t, ts.URL, "solo", 2)
	_, rm := postJSON(t, remote, "POST", "/v1/campaigns", body, nil)
	got := collectRun(t, remote, rm["id"].(string), body)

	wantRep, _ := json.Marshal(want.report)
	gotRep, _ := json.Marshal(got.report)
	if string(gotRep) != string(wantRep) {
		t.Errorf("reports differ:\nlocal  %s\nremote %s", wantRep, gotRep)
	}
	if fmt.Sprint(got.history) != fmt.Sprint(want.history) {
		t.Errorf("queue histories differ: local %v, remote %v", want.history, got.history)
	}
	if len(want.progress) == 0 || fmt.Sprint(got.progress) != fmt.Sprint(want.progress) {
		t.Errorf("progress events differ: local %v, remote %v", want.progress, got.progress)
	}
	for fp, rec := range want.records {
		if got.records[fp] != rec {
			t.Errorf("store record %s differs:\nlocal  %s\nremote %s", fp, rec, got.records[fp])
		}
	}
}

// TestClusterUploadResultValidated: a result record whose
// mapping_fingerprint is not its mapping's fingerprint is rejected
// before it is stored, so GET /v1/mappings/{fp} never serves it.
func TestClusterUploadResultValidated(t *testing.T) {
	srv := newTestServerWith(t, queue.Config{}, serverConfig{})
	m, err := machine.NewByNo(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	good := store.Record{
		Fingerprint: m.Def().Fingerprint(), MachineName: m.Name(),
		Mapping: m.Truth(), MappingFingerprint: m.Truth().Fingerprint(), Match: true,
	}
	bad := good
	bad.Fingerprint = strings.Repeat("b", 64)
	bad.MappingFingerprint = strings.Repeat("c", 64)
	for _, tc := range []struct {
		rec     store.Record
		want    int
		errCode string
	}{
		{good, http.StatusOK, ""},
		{bad, http.StatusBadRequest, "bad_request"},
	} {
		body, err := json.Marshal(tc.rec)
		if err != nil {
			t.Fatal(err)
		}
		code, resp := doJSON(t, srv, "PUT", "/v1/cluster/results/"+tc.rec.Fingerprint, string(body))
		if code != tc.want {
			t.Fatalf("PUT result %.12s: %d (want %d): %v", tc.rec.Fingerprint, code, tc.want, resp)
		}
		if tc.errCode != "" {
			envelope(t, resp, tc.errCode)
		}
	}
	if code, resp := doJSON(t, srv, "GET", "/v1/mappings/"+good.Fingerprint, ""); code != http.StatusOK {
		t.Fatalf("valid record not served: %d %v", code, resp)
	}
	if code, resp := doJSON(t, srv, "GET", "/v1/mappings/"+bad.Fingerprint, ""); code != http.StatusNotFound {
		t.Fatalf("rejected record served: %d %v", code, resp)
	}
}

// oneSampleTrace encodes a one-sample trace of paper machine no and
// returns it with the machine's fingerprint.
func oneSampleTrace(t *testing.T, no int) (fp string, data []byte) {
	t.Helper()
	m, err := machine.NewByNo(no, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, trace.HeaderFor(m, "dramdig", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Append(trace.Sample{A: 0x1000, B: 0x2000, Rounds: 10, LatencyNs: 300}); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return m.Def().Fingerprint(), buf.Bytes()
}

// TestClusterUploadTraceValidated: a trace upload must parse as a trace
// whose header names the path's machine; anything else is rejected
// before it is stored, so GET /v1/traces/{fp} never serves it.
func TestClusterUploadTraceValidated(t *testing.T) {
	srv := newTestServerWith(t, queue.Config{}, serverConfig{})
	fp1, trace1 := oneSampleTrace(t, 1)
	fp2, trace2 := oneSampleTrace(t, 2)
	for _, tc := range []struct {
		name, fp string
		data     []byte
		want     int
	}{
		{"valid", fp1, trace1, http.StatusOK},
		{"zeros", fp2, make([]byte, 4096), http.StatusBadRequest},
		{"truncated header", fp2, trace2[:20], http.StatusBadRequest},
		{"another machine's trace", fp2, trace1, http.StatusBadRequest},
	} {
		code, resp := doJSON(t, srv, "PUT", "/v1/cluster/traces/"+tc.fp, string(tc.data))
		if code != tc.want {
			t.Fatalf("%s: PUT trace: %d (want %d): %v", tc.name, code, tc.want, resp)
		}
		if tc.want != http.StatusOK {
			envelope(t, resp, "bad_request")
		}
	}
	if w := clusterReq(t, srv, "GET", "/v1/traces/"+fp1, ""); w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), trace1) {
		t.Fatalf("valid trace not served intact: %d", w.Code)
	}
	if w := clusterReq(t, srv, "GET", "/v1/traces/"+fp2, ""); w.Code != http.StatusNotFound {
		t.Fatalf("rejected trace served: %d", w.Code)
	}
}

// TestClusterClientUploadTraceReason: a worker whose trace upload is
// refused learns the coordinator's reason, not just the status line.
func TestClusterClientUploadTraceReason(t *testing.T) {
	srv := newTestServerWith(t, queue.Config{}, serverConfig{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	_, trace1 := oneSampleTrace(t, 1)
	fp2, _ := oneSampleTrace(t, 2)
	err := cluster.NewClient(ts.URL, "w1", nil).UploadTrace(context.Background(), fp2, trace1)
	if err == nil {
		t.Fatal("another machine's trace was accepted")
	}
	if !strings.Contains(err.Error(), "does not match path") {
		t.Fatalf("upload error lacks the coordinator's reason: %v", err)
	}
}
