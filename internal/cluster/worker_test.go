package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dramdig/internal/campaign"
	"dramdig/internal/machine"
	"dramdig/internal/metrics"
	"dramdig/internal/obs"
	"dramdig/internal/queue"
	"dramdig/internal/store"
)

// inProcessCoord names its worker and nothing more: enough for
// NewWorker, which treats any Coordinator but *Client as in-process.
type inProcessCoord struct{ Coordinator }

func (inProcessCoord) Worker() string { return "local-1" }

// eventCoord is an in-process coordinator that records the progress
// events it receives by kind, computes every job afresh and accepts
// every beat and outcome.
type eventCoord struct {
	inProcessCoord
	events map[campaign.EventKind]int
}

func (c *eventCoord) Progress(_ context.Context, _, _ string, ev campaign.Event) error {
	c.events[ev.Kind]++
	return nil
}

func (*eventCoord) GetOrCompute(_ context.Context, _ string, compute func() (*store.Record, error)) (*store.Record, error) {
	return compute()
}

func (*eventCoord) Heartbeat(context.Context, string, string, json.RawMessage) error { return nil }

func (*eventCoord) Complete(context.Context, string, string, json.RawMessage, []obs.SpanData, json.RawMessage) error {
	return nil
}

// TestWorkerCountsJobEvents: the job lifecycle counters count the job
// events the worker forwards to its coordinator. One leased campaign
// over No.1 plus a machine whose chip part does not exist starts two
// jobs, one succeeding and one failing, and each counter reads the
// number of events of its kind the coordinator received. A worker
// without a registry counts nothing and forwards the same events.
func TestWorkerCountsJobEvents(t *testing.T) {
	bad, err := machine.ByNo(4)
	if err != nil {
		t.Fatal(err)
	}
	bad.Name, bad.ChipPart = "broken", "NO-SUCH-PART"
	payload, err := json.Marshal(Payload{Request: CampaignRequest{Machines: []int{1}}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	run := func(reg *metrics.Registry) map[campaign.EventKind]int {
		coord := &eventCoord{events: make(map[campaign.EventKind]int)}
		w := NewWorker(coord, WorkerConfig{Workers: 1, Metrics: reg})
		w.RunCampaign = func(ctx context.Context, specs []campaign.Spec, cfg campaign.Config) (*campaign.Report, error) {
			return campaign.Run(ctx, append(specs, campaign.Spec{Name: "broken", Def: bad, Seed: 7}), cfg)
		}
		w.runLease(context.Background(), &LeaseGrant{ID: "c1", Payload: payload, Token: "t", TTLMillis: time.Hour.Milliseconds()})
		return coord.events
	}

	reg := metrics.NewRegistry()
	events := run(reg)
	snap := reg.Snapshot()
	bare := run(nil)
	for _, c := range []struct {
		kind   campaign.EventKind
		family string
		want   int
	}{
		{campaign.EventJobStarted, "dramdig_campaign_jobs_started_total", 2},
		{campaign.EventJobFinished, "dramdig_campaign_jobs_succeeded_total", 1},
		{campaign.EventJobFailed, "dramdig_campaign_jobs_failed_total", 1},
	} {
		if got, _ := snap.Total(c.family); got != float64(c.want) || events[c.kind] != c.want {
			t.Errorf("%s = %v with %d %s events received, want %d of each", c.family, got, events[c.kind], c.kind, c.want)
		}
		if bare[c.kind] != c.want {
			t.Errorf("worker without a registry forwarded %d %s events, want %d", bare[c.kind], c.kind, c.want)
		}
	}
}

// shippingWorker returns a remote worker whose registry is shaped like
// dramdig-worker's after a campaign: the runtime, engine, campaign and
// worker families, the engine and campaign ones moved by the paper's
// settings No.1 and No.4. Its client points at no coordinator; only
// snapshotJSON is exercised.
func shippingWorker(tb testing.TB) *Worker {
	tb.Helper()
	w := NewWorker(NewClient("http://127.0.0.1:1", "w1", nil), WorkerConfig{
		Workers: 1,
		Metrics: metrics.NewRegistry(),
	})
	specs, err := BuildSpecs(CampaignRequest{Machines: []int{1, 4}}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	rep, err := campaign.Run(context.Background(), specs, campaign.Config{
		Workers: 1, Seed: 1, OnEvent: w.count, Instrument: w.inst,
	})
	if err != nil || rep.Succeeded != len(specs) {
		tb.Fatalf("campaign: %v (%d/%d ok)", err, rep.Succeeded, len(specs))
	}
	return w
}

// TestWorkerSnapshotShipping pins the snapshot traffic: a remote worker
// ships its whole registry as JSON at most once per snapshotMinInterval
// on heartbeats and on every completion, the coordinator's federation
// accepts the bytes as they are, and in-process workers (or workers
// without a registry) ship nothing.
func TestWorkerSnapshotShipping(t *testing.T) {
	w := shippingWorker(t)
	if w.snapshotJSON(false) == nil {
		t.Fatal("first heartbeat shipped no snapshot")
	}
	if w.snapshotJSON(false) != nil {
		t.Fatal("second heartbeat inside the floor shipped a snapshot")
	}
	data := w.snapshotJSON(true)
	if data == nil || w.snapshotJSON(true) == nil {
		t.Fatal("completion did not force a snapshot")
	}

	fed := metrics.NewFederation()
	if err := fed.Update("w1", data, time.Now()); err != nil {
		t.Fatalf("coordinator refused the worker's snapshot: %v", err)
	}
	snap, _, _ := fed.Info("w1")
	if n, _ := snap.Total("dramdig_campaign_jobs_succeeded_total"); n != 2 {
		t.Fatalf("shipped jobs_succeeded = %v, want 2", n)
	}
	for _, name := range []string{"dramdig_engine_samples_total", "dramdig_go_goroutines", "dramdig_worker_leases_total"} {
		if _, ok := snap.Total(name); !ok {
			t.Fatalf("shipped snapshot lacks %s", name)
		}
	}

	local := NewWorker(inProcessCoord{}, WorkerConfig{Metrics: metrics.NewRegistry()})
	if local.snapshotJSON(true) != nil {
		t.Fatal("in-process worker shipped a snapshot")
	}
	bare := NewWorker(NewClient("http://127.0.0.1:1", "w2", nil), WorkerConfig{})
	if bare.snapshotJSON(true) != nil {
		t.Fatal("worker without a registry shipped a snapshot")
	}
}

// BenchmarkWorkerSnapshot measures the telemetry a remote worker sends.
// encode is one ship on the worker (Registry.Snapshot plus json.Marshal)
// and reports the payload's size; ingest is what the coordinator pays
// per snapshot to decode, validate and store it; beat calls the
// heartbeat's snapshot path back to back, far hotter than any real
// heartbeat, and reports how many snapshots the floor lets through.
//
//	go test -run '^$' -bench WorkerSnapshot -benchtime 5s ./internal/cluster
func BenchmarkWorkerSnapshot(b *testing.B) {
	w := shippingWorker(b)
	data := w.snapshotJSON(true)
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if w.snapshotJSON(true) == nil {
				b.Fatal("nothing shipped")
			}
		}
		b.ReportMetric(float64(len(data)), "bytes/snapshot")
		b.ReportMetric(float64(len(w.cfg.Metrics.Snapshot().Families)), "families")
	})
	b.Run("ingest", func(b *testing.B) {
		fed := metrics.NewFederation()
		for i := 0; i < b.N; i++ {
			if err := fed.Update("w1", data, time.Now()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("beat", func(b *testing.B) {
		ships := 0
		for i := 0; i < b.N; i++ {
			if w.snapshotJSON(false) != nil {
				ships++
			}
		}
		b.ReportMetric(float64(ships)/b.Elapsed().Seconds(), "ships/s")
	})
}

// BenchmarkHeartbeatSnapshot prices the metrics snapshot a remote
// worker's heartbeats carry; it is the heartbeat_snapshot_overhead row
// of BENCH_campaign.json. Each iteration sends one bare heartbeat and
// one carrying shippingWorker's snapshotJSON(false), alternating which
// goes first. The handler renews the lease on a durable queue (in
// memory: it appends and fsyncs nothing) and folds any snapshot into a
// federation, as /v1/cluster/jobs/{id}/heartbeat does. As in Worker,
// the snapshot side encodes at most once a second, so nearly all of
// its beats ship nothing and the cost sits in a few of them, which a
// per-iteration median would drop. The benchmark therefore compares
// summed time: bare_ns_op and snapshot_ns_op are each side's mean, and
// snapshot_overhead_pct is the ratio of the two sums.
func BenchmarkHeartbeatSnapshot(b *testing.B) {
	q, err := queue.Open(queue.Config{Dir: b.TempDir(), Capacity: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer q.Close()
	if _, _, err := q.Submit(json.RawMessage(`{"request":{"machines":[1,4,7,8],"seed":42},"seed":42}`), queue.SubmitOptions{}); err != nil {
		b.Fatal(err)
	}
	j, ok, err := q.Lease("w1", time.Hour)
	if err != nil || !ok {
		b.Fatal(ok, err)
	}
	fed := metrics.NewFederation()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if _, err := q.Heartbeat(j.ID, req.Worker, req.Token, time.Hour); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		if len(req.Metrics) > 0 {
			if err := fed.Update(req.Worker, req.Metrics, time.Now()); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(HeartbeatResponse{TTLMillis: time.Hour.Milliseconds()})
	}))
	defer srv.Close()
	c := NewClient(srv.URL, "w1", srv.Client())
	w := shippingWorker(b)
	ctx := context.Background()
	// The first call dials; neither side should pay for it.
	if err := c.Heartbeat(ctx, j.ID, j.LeaseToken, nil); err != nil {
		b.Fatal(err)
	}
	var sum [2]time.Duration // bare, snapshot
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range 2 {
			side := (i + k) % 2
			start := time.Now()
			var snap json.RawMessage
			if side == 1 {
				snap = w.snapshotJSON(false)
			}
			if err := c.Heartbeat(ctx, j.ID, j.LeaseToken, snap); err != nil {
				b.Fatal(err)
			}
			sum[side] += time.Since(start)
		}
	}
	b.ReportMetric(float64(sum[0])/float64(b.N), "bare_ns_op")
	b.ReportMetric(float64(sum[1])/float64(b.N), "snapshot_ns_op")
	b.ReportMetric((float64(sum[1])/float64(sum[0])-1)*100, "snapshot_overhead_pct")
}
