// Command benchjson runs the microbenchmarks the end-to-end benchmark
// (perfbench) cannot resolve through testing.Benchmark and writes them
// as JSON, so their trajectory can be tracked across commits:
//
//	benchjson [-o BENCH_campaign.json]
//
// The rows are the engine's live pipeline bare, with per-sample metrics
// instrumentation and with a span tracer; the durable queue's submit
// paths (sequential, group-committed, memory-only) and crash recovery;
// the lease heartbeat bare and carrying the worker's metrics snapshot;
// and the segment store's persist, warm read and GC sweep. Every row
// runs runsPerRow times, round by round so a slow phase of the host
// hits every row alike, and records its median ns/op with the min and
// max. Three derived rows hold an instrumentation cost to its budget:
// metrics_overhead, tracing_overhead and heartbeat_snapshot_overhead.
package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"dramdig"
	"dramdig/internal/campaign"
	"dramdig/internal/cluster"
	"dramdig/internal/engine"
	"dramdig/internal/machine"
	"dramdig/internal/metrics"
	"dramdig/internal/obs"
	"dramdig/internal/queue"
	"dramdig/internal/store"
)

// runsPerRow is how many times every row runs. One run cannot resolve
// a few percent on a shared host: the fsync-bound heartbeat alone moved
// by more than 10% between single runs.
const runsPerRow = 5

// overheadBudgetPct is what instrumentation may cost over the bare run.
const overheadBudgetPct = 3.0

// benchResult is one benchmark's row in the JSON document: the median
// run's ns/op, iterations and custom metrics, with the spread over all
// runs.
type benchResult struct {
	Name       string             `json:"name"`
	Runs       int                `json:"runs"`
	Iterations int                `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	MinNsPerOp float64            `json:"min_ns_per_op"`
	MaxNsPerOp float64            `json:"max_ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
	// Verdict grades an overhead row against overheadBudgetPct: "within
	// budget", "over budget", or "unresolved" when the per-round
	// overheads straddle the budget.
	Verdict string `json:"verdict,omitempty"`
}

type document struct {
	CreatedUnix int64         `json:"created_unix"`
	GoVersion   string        `json:"go_version"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	Benchmarks  []benchResult `json:"benchmarks"`
}

// rows are the measured benchmarks, in output order.
var rows = []struct {
	name string
	fn   func(b *testing.B)
}{
	{"engine_live", benchEngineLive},
	{"engine_live_instrumented", benchEngineLiveInstrumented},
	{"engine_live_traced", benchEngineLiveTraced},
	{"queue_submit", benchQueueSubmit},
	{"queue_submit_batched", benchQueueSubmitBatched},
	{"queue_submit_memory", benchQueueSubmitMemory},
	{"queue_recover", benchQueueRecover},
	{"heartbeat_bare", func(b *testing.B) { benchHeartbeat(b, false) }},
	{"heartbeat_with_snapshot", func(b *testing.B) { benchHeartbeat(b, true) }},
	{"store_put_segment", benchStorePutSegment},
	{"store_read_cached", benchStoreReadCached},
	{"store_gc_sweep", benchStoreGCSweep},
}

// overheads derive a row from two measured ones: what cost costs over
// bare. key names the cost row's median in the derived row's metrics.
var overheads = []struct{ name, bare, cost, key string }{
	// Per-sample instrumentation: each meter batches its samples and
	// folds them into the shared counter and histogram every 4,096
	// samples and at every step's end.
	{"metrics_overhead", "engine_live", "engine_live_instrumented", "instrumented_ns_op"},
	// A span tracer on the context: five phase spans per run plus the
	// tracer check on the sample path.
	{"tracing_overhead", "engine_live", "engine_live_traced", "traced_ns_op"},
	// The worker's metrics snapshot riding the lease heartbeat.
	{"heartbeat_snapshot_overhead", "heartbeat_bare", "heartbeat_with_snapshot", "snapshot_ns_op"},
}

func main() {
	out := flag.String("o", "BENCH_campaign.json", "output file (- for stdout)")
	flag.Parse()

	// results[name][k] is the row's run in round k.
	results := make(map[string][]testing.BenchmarkResult, len(rows))
	for round := 1; round <= runsPerRow; round++ {
		for _, row := range rows {
			r := testing.Benchmark(row.fn)
			results[row.name] = append(results[row.name], r)
			fmt.Fprintf(os.Stderr, "benchjson: round %d/%d %-26s %14.0f ns/op  %v\n",
				round, runsPerRow, row.name, nsPerOp(r), r.Extra)
		}
	}

	doc := document{
		CreatedUnix: time.Now().Unix(),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}
	for _, row := range rows {
		doc.Benchmarks = append(doc.Benchmarks, summarize(row.name, results[row.name]))
	}
	for _, o := range overheads {
		res := overhead(o.name, o.key, results[o.bare], results[o.cost])
		doc.Benchmarks = append(doc.Benchmarks, res)
		fmt.Fprintf(os.Stderr, "benchjson: %-26s overhead %+.2f%% (rounds %+.2f%% .. %+.2f%%): %s\n",
			res.Name, res.Metrics["overhead_pct"], res.Metrics["overhead_pct_min"],
			res.Metrics["overhead_pct_max"], res.Verdict)
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

// nsPerOp is a run's time per iteration, unrounded.
func nsPerOp(r testing.BenchmarkResult) float64 {
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// summarize folds one row's runs into the median run's figures and the
// min and max ns/op over all of them.
func summarize(name string, runs []testing.BenchmarkResult) benchResult {
	sorted := slices.Clone(runs)
	slices.SortFunc(sorted, func(a, b testing.BenchmarkResult) int {
		return cmp.Compare(nsPerOp(a), nsPerOp(b))
	})
	med := sorted[len(sorted)/2]
	res := benchResult{
		Name:       name,
		Runs:       len(runs),
		Iterations: med.N,
		NsPerOp:    nsPerOp(med),
		MinNsPerOp: nsPerOp(sorted[0]),
		MaxNsPerOp: nsPerOp(sorted[len(sorted)-1]),
		Metrics:    map[string]float64{},
	}
	for k, v := range med.Extra {
		res.Metrics[k] = v
	}
	return res
}

// overhead derives the cost row's overhead over the bare one from the
// two rows' medians. Its spread is the least and the most overhead any
// one round measured, pairing the two rows' runs of that round, and the
// budget is unresolved when that spread straddles it.
func overhead(name, key string, bareRuns, costRuns []testing.BenchmarkResult) benchResult {
	pct := func(c, b float64) float64 { return (c/b - 1) * 100 }
	lo, hi := math.Inf(1), math.Inf(-1)
	for k := range costRuns {
		o := pct(nsPerOp(costRuns[k]), nsPerOp(bareRuns[k]))
		lo, hi = min(lo, o), max(hi, o)
	}
	bare, res := summarize("", bareRuns), summarize(name, costRuns)
	res.Metrics = map[string]float64{
		"bare_ns_op":       bare.NsPerOp,
		key:                res.NsPerOp,
		"overhead_pct":     pct(res.NsPerOp, bare.NsPerOp),
		"overhead_pct_min": lo,
		"overhead_pct_max": hi,
		"budget_pct":       overheadBudgetPct,
	}
	switch {
	case hi <= overheadBudgetPct:
		res.Verdict = "within budget"
	case lo > overheadBudgetPct:
		res.Verdict = "over budget"
	default:
		res.Verdict = "unresolved"
	}
	return res
}

// benchEngineLive measures one full live pipeline run per iteration —
// the bare side of the metrics and tracing overhead comparisons.
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
// WAL holds a mixed backlog (pending, in flight, done) and
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
		case 1: // in flight with a renewed lease — the crash-recovery case
			j, ok, err := q.Lease("bench", time.Hour)
			if err != nil || !ok {
				b.Fatal(ok, err)
			}
			if _, err := q.Heartbeat(j.ID, "bench", j.LeaseToken, time.Hour); err != nil {
				b.Fatal(err)
			}
		case 2:
			j, ok, err := q.Lease("bench", time.Hour)
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
// q.Heartbeat (in memory: with no progress pending it appends and
// fsyncs nothing) and decodes any shipped metrics into a federation,
// the way /v1/cluster/heartbeat does. withSnapshot ships as cluster.Worker
// does: the whole snapshot of a registry holding the runtime, engine
// and campaign families a worker carries, encoded by encoding/json, at
// most once a second — a beat inside the window ships nothing and pays only a
// clock read. The gap over the bare beat is the real price of fleet
// telemetry on the heartbeat.
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
	j, ok, err := q.Lease("bench-worker", time.Hour)
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
		json.NewEncoder(w).Encode(cluster.HeartbeatResponse{TTLMillis: time.Hour.Milliseconds()})
	}))
	defer srv.Close()

	reg := metrics.NewRegistry()
	metrics.RegisterRuntime(reg)
	engine.NewInstrument(reg)
	campaign.NewMetrics(reg)
	client := cluster.NewClient(srv.URL, "bench-worker", srv.Client())
	ctx := context.Background()
	var lastShip time.Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var snap json.RawMessage
		if withSnapshot && time.Since(lastShip) >= time.Second {
			lastShip = time.Now()
			if snap, err = json.Marshal(reg.Snapshot()); err != nil {
				b.Fatal(err)
			}
		}
		if err := client.Heartbeat(ctx, j.ID, j.LeaseToken, snap); err != nil {
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
