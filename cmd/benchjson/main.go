// Command benchjson runs the repository's campaign, engine and queue
// benchmarks through testing.Benchmark and emits the results as JSON, so
// the performance trajectory can be tracked across commits:
//
//	benchjson [-o BENCH_campaign.json] [-machines 4] [-seed 1]
//
// The output is one self-contained document: host facts plus one entry
// per benchmark with iterations, ns/op and the benchmark's custom
// metrics (machines/s, samples/s, jobs/s, ...), including the
// engine_live_vs_replay row tracking how much faster a trace replay is
// than the live simulation it recorded, the durable-queue rows
// (queue_submit, queue_submit_batched, queue_recover) tracking the
// WAL's fsync-bound submit path, the group-commit batching of
// concurrent submissions, and crash-recovery replay throughput, and
// the metrics_overhead
// and tracing_overhead rows tracking what the hot-path sample
// instrumentation and the per-phase span tracer cost relative to an
// uninstrumented run, and the heartbeat rows (heartbeat_bare,
// heartbeat_with_snapshot, heartbeat_snapshot_overhead) tracking what
// piggybacking a worker's metrics snapshot on a lease heartbeat costs
// over the bare renewal, and the storage rows (store_put_flat,
// store_put_segment, store_read_cached, store_gc_sweep,
// store_put_overhead) tracking what the segment-based blob layout costs
// on the persist path relative to the old one-file-per-record flat
// layout (budget: a few percent), plus warm-cache read latency and GC
// sweep throughput.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
	"time"

	"dramdig"
	"dramdig/internal/cluster"
	"dramdig/internal/engine"
	"dramdig/internal/machine"
	"dramdig/internal/metrics"
	"dramdig/internal/obs"
	"dramdig/internal/queue"
	"dramdig/internal/store"
	"dramdig/internal/trace"
)

// benchResult is one benchmark's row in the JSON document.
type benchResult struct {
	Name       string             `json:"name"`
	Iterations int                `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

type document struct {
	CreatedUnix int64         `json:"created_unix"`
	GoVersion   string        `json:"go_version"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	Benchmarks  []benchResult `json:"benchmarks"`
}

func main() {
	var (
		out      = flag.String("o", "BENCH_campaign.json", "output file (- for stdout)")
		machines = flag.Int("machines", 4, "campaign size (cheapest paper settings first)")
		seed     = flag.Int64("seed", 1, "campaign tool seed")
	)
	flag.Parse()

	specs := campaignSpecs(*machines)
	doc := document{
		CreatedUnix: time.Now().Unix(),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}

	run := func(name string, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		row := benchResult{
			Name:       name,
			Iterations: r.N,
			NsPerOp:    float64(r.NsPerOp()),
			Metrics:    map[string]float64{},
		}
		for k, v := range r.Extra {
			row.Metrics[k] = v
		}
		doc.Benchmarks = append(doc.Benchmarks, row)
		fmt.Fprintf(os.Stderr, "benchjson: %-22s %10d ns/op  %v\n", name, r.NsPerOp(), r.Extra)
	}

	run("campaign_sequential", func(b *testing.B) { benchCampaign(b, specs, 1, *seed) })
	run(fmt.Sprintf("campaign_pooled_%d", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		benchCampaign(b, specs, runtime.GOMAXPROCS(0), *seed)
	})
	run("trace_record", benchTraceRecord)
	run("trace_replay_strict", benchTraceReplay)
	run("engine_live", benchEngineLive)
	run("engine_live_instrumented", benchEngineLiveInstrumented)
	run("engine_live_traced", benchEngineLiveTraced)
	run("engine_replay_strict", benchEngineReplay)
	run("queue_submit", benchQueueSubmit)
	run("queue_submit_batched", benchQueueSubmitBatched)
	run("queue_submit_memory", benchQueueSubmitMemory)
	run("queue_recover", benchQueueRecover)
	run("heartbeat_bare", func(b *testing.B) { benchHeartbeat(b, false) })
	run("heartbeat_with_snapshot", func(b *testing.B) { benchHeartbeat(b, true) })
	run("store_put_segment", benchStorePutSegment)
	run("store_read_cached", benchStoreReadCached)
	run("store_gc_sweep", benchStoreGCSweep)

	// BenchmarkEngineLiveVsReplay: one derived row so the JSON document
	// tracks live-vs-trace-replay throughput directly across PRs. The
	// inputs are looked up by name so reordering run() calls cannot
	// silently pair the wrong benchmarks.
	byName := func(name string) *benchResult {
		for i := range doc.Benchmarks {
			if doc.Benchmarks[i].Name == name {
				return &doc.Benchmarks[i]
			}
		}
		return nil
	}
	live, replay := byName("engine_live"), byName("engine_replay_strict")
	switch {
	case live == nil || replay == nil || replay.NsPerOp <= 0:
		fmt.Fprintln(os.Stderr, "benchjson: skipping engine_live_vs_replay (inputs missing or degenerate)")
	default:
		row := benchResult{
			Name:       "engine_live_vs_replay",
			Iterations: replay.Iterations,
			NsPerOp:    replay.NsPerOp,
			Metrics: map[string]float64{
				"live_ns_op":     live.NsPerOp,
				"replay_ns_op":   replay.NsPerOp,
				"replay_speedup": live.NsPerOp / replay.NsPerOp,
			},
		}
		doc.Benchmarks = append(doc.Benchmarks, row)
		fmt.Fprintf(os.Stderr, "benchjson: %-22s replay speedup %.2fx\n",
			row.Name, row.Metrics["replay_speedup"])
	}

	// metrics_overhead: the same derived-row treatment for the cost of
	// per-sample instrumentation — an atomic counter increment plus a
	// histogram observation on every timing measurement. The observability
	// contract is that this stays within a few percent of the bare run.
	bare, inst := byName("engine_live"), byName("engine_live_instrumented")
	switch {
	case bare == nil || inst == nil || bare.NsPerOp <= 0:
		fmt.Fprintln(os.Stderr, "benchjson: skipping metrics_overhead (inputs missing or degenerate)")
	default:
		row := benchResult{
			Name:       "metrics_overhead",
			Iterations: inst.Iterations,
			NsPerOp:    inst.NsPerOp,
			Metrics: map[string]float64{
				"bare_ns_op":         bare.NsPerOp,
				"instrumented_ns_op": inst.NsPerOp,
				"overhead_pct":       (inst.NsPerOp/bare.NsPerOp - 1) * 100,
			},
		}
		doc.Benchmarks = append(doc.Benchmarks, row)
		fmt.Fprintf(os.Stderr, "benchjson: %-22s overhead %+.2f%%\n",
			row.Name, row.Metrics["overhead_pct"])
	}

	// tracing_overhead: the cost of running the same pipeline with a span
	// tracer on the context — five phase spans per run plus the tracer
	// check on the sample path. Budget: a few percent over the bare run.
	traced := byName("engine_live_traced")
	switch {
	case bare == nil || traced == nil || bare.NsPerOp <= 0:
		fmt.Fprintln(os.Stderr, "benchjson: skipping tracing_overhead (inputs missing or degenerate)")
	default:
		row := benchResult{
			Name:       "tracing_overhead",
			Iterations: traced.Iterations,
			NsPerOp:    traced.NsPerOp,
			Metrics: map[string]float64{
				"bare_ns_op":   bare.NsPerOp,
				"traced_ns_op": traced.NsPerOp,
				"overhead_pct": (traced.NsPerOp/bare.NsPerOp - 1) * 100,
			},
		}
		doc.Benchmarks = append(doc.Benchmarks, row)
		fmt.Fprintf(os.Stderr, "benchjson: %-22s overhead %+.2f%%\n",
			row.Name, row.Metrics["overhead_pct"])
	}

	// heartbeat_snapshot_overhead: what piggybacking a full metrics
	// snapshot on a lease heartbeat costs over the bare renewal. The
	// round trip is WAL-fsync-bound, so encoding and federating the
	// snapshot must stay within a few percent of the bare beat — that is
	// what makes "no extra connection" fleet telemetry free in practice.
	hbBare, hbSnap := byName("heartbeat_bare"), byName("heartbeat_with_snapshot")
	switch {
	case hbBare == nil || hbSnap == nil || hbBare.NsPerOp <= 0:
		fmt.Fprintln(os.Stderr, "benchjson: skipping heartbeat_snapshot_overhead (inputs missing or degenerate)")
	default:
		row := benchResult{
			Name:       "heartbeat_snapshot_overhead",
			Iterations: hbSnap.Iterations,
			NsPerOp:    hbSnap.NsPerOp,
			Metrics: map[string]float64{
				"bare_ns_op":     hbBare.NsPerOp,
				"snapshot_ns_op": hbSnap.NsPerOp,
				"overhead_pct":   (hbSnap.NsPerOp/hbBare.NsPerOp - 1) * 100,
			},
		}
		doc.Benchmarks = append(doc.Benchmarks, row)
		fmt.Fprintf(os.Stderr, "benchjson: %-22s overhead %+.2f%%\n",
			row.Name, row.Metrics["overhead_pct"])
	}

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %s (%d benchmarks)\n", *out, len(doc.Benchmarks))
}

// campaignSpecs picks n of the paper's cheaper settings (same choice as
// the root BenchmarkCampaign: No.1, No.4, No.7, No.8 first).
func campaignSpecs(n int) []dramdig.CampaignSpec {
	all := dramdig.PaperCampaign(42)
	order := []int{0, 3, 6, 7, 1, 2, 4, 5, 8}
	if n <= 0 || n > len(order) {
		n = len(order)
	}
	specs := make([]dramdig.CampaignSpec, 0, n)
	for _, i := range order[:n] {
		specs = append(specs, all[i])
	}
	return specs
}

func benchCampaign(b *testing.B, specs []dramdig.CampaignSpec, workers int, seed int64) {
	for i := 0; i < b.N; i++ {
		rep, err := dramdig.RunCampaign(context.Background(), specs, dramdig.CampaignConfig{
			Workers: workers,
			Seed:    seed,
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Succeeded != len(specs) {
			b.Fatalf("campaign degraded: %d/%d jobs ok", rep.Succeeded, rep.Total)
		}
	}
	b.ReportMetric(float64(len(specs)*b.N)/b.Elapsed().Seconds(), "machines/s")
}

// recordedTrace runs the engine once over a fresh No.4 with a trace
// sink and returns the decoded recording.
func recordedTrace(b *testing.B) *trace.Trace {
	b.Helper()
	m, err := dramdig.NewMachine(4, 42)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := dramdig.Run(context.Background(), dramdig.LiveSource(m),
		dramdig.WithSeed(42), dramdig.WithTraceSink(&buf)); err != nil {
		b.Fatal(err)
	}
	tr, err := dramdig.DecodeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// benchTraceRecord measures the recording overhead over a full pipeline
// run on setting No.4.
func benchTraceRecord(b *testing.B) {
	var samples int
	for i := 0; i < b.N; i++ {
		m, err := dramdig.NewMachine(4, 42)
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		res, err := dramdig.Run(context.Background(), dramdig.LiveSource(m),
			dramdig.WithSeed(42), dramdig.WithTraceSink(&buf))
		if err != nil {
			b.Fatal(err)
		}
		samples = int(res.Measurements)
	}
	b.ReportMetric(float64(samples*b.N)/b.Elapsed().Seconds(), "samples/s")
}

// benchTraceReplay measures offline replay throughput: the full pipeline
// re-served from a recorded trace with zero simulation.
func benchTraceReplay(b *testing.B) {
	tr := recordedTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dramdig.Run(context.Background(), dramdig.TraceSource(tr, dramdig.ReplayStrict)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.Samples)*b.N)/b.Elapsed().Seconds(), "samples/s")
}

// benchEngineLive measures one full live pipeline run per iteration —
// the baseline of the live-vs-replay comparison.
func benchEngineLive(b *testing.B) {
	var meas uint64
	for i := 0; i < b.N; i++ {
		m, err := dramdig.NewMachine(4, 42)
		if err != nil {
			b.Fatal(err)
		}
		res, err := dramdig.Run(context.Background(), dramdig.LiveSource(m), dramdig.WithSeed(42))
		if err != nil {
			b.Fatal(err)
		}
		meas = res.Measurements
	}
	b.ReportMetric(float64(meas)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

// benchEngineLiveInstrumented is benchEngineLive with the engine's
// sample instrumentation attached to a real registry — the instrumented
// side of the metrics_overhead comparison.
func benchEngineLiveInstrumented(b *testing.B) {
	inst := engine.NewInstrument(metrics.NewRegistry())
	var meas uint64
	for i := 0; i < b.N; i++ {
		m, err := dramdig.NewMachine(4, 42)
		if err != nil {
			b.Fatal(err)
		}
		res, err := dramdig.Run(context.Background(), dramdig.LiveSource(m),
			dramdig.WithSeed(42), engine.WithInstrument(inst))
		if err != nil {
			b.Fatal(err)
		}
		meas = res.Measurements
	}
	b.ReportMetric(float64(meas)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

// benchEngineLiveTraced is benchEngineLive with a live span tracer on
// the context — the traced side of the tracing_overhead comparison.
// Engine spans are per phase (five per run), so the per-sample hot path
// pays only the tracer-presence check; the contract is that a traced
// run stays within a few percent of the bare one.
func benchEngineLiveTraced(b *testing.B) {
	tr := obs.NewTracer(obs.Config{Capacity: 4096})
	ctx := obs.WithTracer(context.Background(), tr)
	var meas uint64
	for i := 0; i < b.N; i++ {
		m, err := dramdig.NewMachine(4, 42)
		if err != nil {
			b.Fatal(err)
		}
		res, err := dramdig.Run(ctx, dramdig.LiveSource(m), dramdig.WithSeed(42))
		if err != nil {
			b.Fatal(err)
		}
		meas = res.Measurements
	}
	b.ReportMetric(float64(meas)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

// benchEngineReplay measures the identical pipeline served from a
// recording — the replay side of the live-vs-replay comparison.
func benchEngineReplay(b *testing.B) {
	tr := recordedTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dramdig.Run(context.Background(), dramdig.TraceSource(tr, dramdig.ReplayStrict)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.Samples)*b.N)/b.Elapsed().Seconds(), "samples/s")
}

// benchPayload approximates a queued campaign request.
var benchPayload = json.RawMessage(`{"request":{"machines":[1,4,7,8],"seed":42},"seed":42}`)

// benchQueueSubmit measures the durable submit path: one WAL append +
// fsync per job, the latency every POST /v1/campaigns pays.
func benchQueueSubmit(b *testing.B) {
	dir, err := os.MkdirTemp("", "benchq")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	q, err := queue.Open(queue.Config{Dir: dir, Capacity: 1 << 30, CompactEvery: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer q.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := q.Submit(benchPayload, queue.SubmitOptions{Priority: i % 3}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// benchQueueSubmitBatched measures the durable submit path under
// concurrent submitters: the WAL's group commit folds parallel
// submissions into shared fsyncs, so jobs/s should clear the
// one-fsync-per-job floor queue_submit pays sequentially.
func benchQueueSubmitBatched(b *testing.B) {
	dir, err := os.MkdirTemp("", "benchq")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	q, err := queue.Open(queue.Config{Dir: dir, Capacity: 1 << 30, CompactEvery: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer q.Close()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := q.Submit(benchPayload, queue.SubmitOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// benchQueueSubmitMemory is the same path without durability — the gap
// to queue_submit is the price of the fsync'd WAL.
func benchQueueSubmitMemory(b *testing.B) {
	q, err := queue.Open(queue.Config{Capacity: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer q.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := q.Submit(benchPayload, queue.SubmitOptions{Priority: i % 3}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// benchQueueRecover measures crash recovery: reopening a queue whose
// WAL holds a mixed backlog (pending, checkpointed in-flight, done) and
// re-materializing every job.
func benchQueueRecover(b *testing.B) {
	const jobs = 256
	dir, err := os.MkdirTemp("", "benchq")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	q, err := queue.Open(queue.Config{Dir: dir, Capacity: jobs, KeepTerminal: jobs, CompactEvery: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < jobs; i++ {
		if _, _, err := q.Submit(benchPayload, queue.SubmitOptions{}); err != nil {
			b.Fatal(err)
		}
		// Lease takes the oldest pending job; act on that one.
		switch i % 3 {
		case 0: // leave pending
		case 1: // in flight with a checkpoint — the crash-recovery case
			j, ok, err := q.Lease("bench", time.Hour, nil)
			if err != nil || !ok {
				b.Fatal(ok, err)
			}
			if _, err := q.Heartbeat(j.ID, "bench", j.LeaseToken, time.Hour, json.RawMessage(`{"jobs":[{"index":0}]}`)); err != nil {
				b.Fatal(err)
			}
		case 2:
			j, ok, err := q.Lease("bench", time.Hour, nil)
			if err != nil || !ok {
				b.Fatal(ok, err)
			}
			if err := q.CompleteLease(j.ID, "bench", j.LeaseToken, json.RawMessage(`{"ok":true}`)); err != nil {
				b.Fatal(err)
			}
		}
	}
	// No Close: recover the un-compacted WAL the way a crashed daemon's
	// successor would. (The first iteration replays the raw WAL; later
	// ones load the snapshot the previous Open compacted — both are
	// recovery paths a restarted daemon takes.)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qr, err := queue.Open(queue.Config{Dir: dir, Capacity: jobs, KeepTerminal: jobs})
		if err != nil {
			b.Fatal(err)
		}
		if got := qr.StatsSnapshot(); got.Pending == 0 {
			b.Fatalf("recovery lost the backlog: %+v", got)
		}
		if err := qr.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(jobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// benchHeartbeat measures the worker→coordinator heartbeat round trip
// against a real durable queue: the handler renews the lease through
// q.Heartbeat (one WAL append + fsync, what the live coordinator pays)
// and folds any shipped metrics into a federation as raw bytes, the way
// /v1/cluster/heartbeat does. withSnapshot runs the beat exactly as
// cluster.Worker does with a registry attached — snapshot a realistic
// registry (runtime self-metrics plus the engine families) every beat,
// reduce it to a change-only delta with periodic full resyncs, and
// splice the encoded bytes into the request — so the delta over the
// bare beat is the real price of piggybacked fleet telemetry. Like the
// worker, snapshot attempts are floored at one per second: a beat
// inside the window ships nothing and pays only a clock read.
func benchHeartbeat(b *testing.B, withSnapshot bool) {
	dir, err := os.MkdirTemp("", "benchhb")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	q, err := queue.Open(queue.Config{Dir: dir, Capacity: 1 << 30, CompactEvery: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer q.Close()
	if _, _, err := q.Submit(benchPayload, queue.SubmitOptions{}); err != nil {
		b.Fatal(err)
	}
	j, ok, err := q.Lease("bench-worker", time.Hour, nil)
	if err != nil || !ok {
		b.Fatal(ok, err)
	}

	fed := metrics.NewFederation()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req cluster.HeartbeatRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if _, err := q.Heartbeat(j.ID, req.Worker, req.Token, time.Hour, req.Checkpoint); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		fed.UpdateRaw(req.Worker, req.Metrics, time.Now())
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(cluster.HeartbeatResponse{TTLMillis: time.Hour.Milliseconds()})
	}))
	defer srv.Close()

	reg := metrics.NewRegistry()
	metrics.RegisterRuntime(reg)
	engine.NewInstrument(reg)
	ship := metrics.NewDeltaEncoder(0)
	client := cluster.NewClient(srv.URL, "bench-worker", srv.Client())
	ctx := context.Background()
	var lastShip time.Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var snap json.RawMessage
		if withSnapshot && time.Since(lastShip) >= time.Second {
			lastShip = time.Now()
			// Snapshot, delta-reduce, encode — Worker.snapshotJSON's path.
			if s := ship.Encode(reg.Snapshot(), false); s != nil {
				data, err := s.MarshalJSON()
				if err != nil {
					b.Fatal(err)
				}
				snap = data
			}
		}
		if err := client.Heartbeat(ctx, j.ID, j.LeaseToken, nil, snap); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "beats/s")
}

// benchStoreRecord builds one valid store record; callers vary the
// fingerprint per iteration to exercise the persist path.
func benchStoreRecord(b *testing.B) store.Record {
	b.Helper()
	def, err := machine.ByNo(1)
	if err != nil {
		b.Fatal(err)
	}
	m, err := machine.New(def, 1)
	if err != nil {
		b.Fatal(err)
	}
	truth := m.Truth()
	return store.Record{
		MachineName:        def.Name,
		Mapping:            truth,
		MappingFingerprint: truth.Fingerprint(),
		Match:              true,
		SimSeconds:         1.5,
		Measurements:       100_000,
	}
}

// benchStorePutSegment measures the store's persist path: one Put per
// distinct fingerprint, appended to the active segment.
func benchStorePutSegment(b *testing.B) {
	dir, err := os.MkdirTemp("", "benchstore")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	rec := benchStoreRecord(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rec
		r.Fingerprint = fmt.Sprintf("%064x", i)
		if err := st.Put(&r); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// benchStoreReadCached measures a warm Get: the record is in the
// memory LRU, so no segment read happens — the latency every repeat
// GET /v1/mappings/{fp} pays.
func benchStoreReadCached(b *testing.B) {
	dir, err := os.MkdirTemp("", "benchstore")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	rec := benchStoreRecord(b)
	rec.Fingerprint = fmt.Sprintf("%064x", 1)
	if err := st.Put(&rec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := st.Get(rec.Fingerprint); err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reads/s")
}

// benchStoreGCSweep measures a GC pass over a store holding orphaned
// traces: every sweep tombstones the batch, fsyncs once, and compacts
// the dead segments.
func benchStoreGCSweep(b *testing.B) {
	const orphans = 64
	dir, err := os.MkdirTemp("", "benchstore")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	payload := bytes.Repeat([]byte("t"), 4096)
	none := func() map[string]bool { return nil }
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < orphans; j++ {
			fp := fmt.Sprintf("%056x%08x", i, j)
			if err := st.PutTrace(fp, payload); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		res, err := st.Sweep(ctx, none)
		if err != nil {
			b.Fatal(err)
		}
		if res.ReclaimedBlobs != orphans {
			b.Fatalf("sweep reclaimed %d of %d orphans", res.ReclaimedBlobs, orphans)
		}
	}
	b.ReportMetric(float64(orphans*b.N)/b.Elapsed().Seconds(), "blobs/s")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
