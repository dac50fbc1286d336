package metrics

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestNilMetricsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "", nil)
	g := r.Gauge("x", "", nil)
	h := r.Histogram("x_seconds", "", []float64{1}, nil)
	r.GaugeFunc("y", "", nil, func() float64 { return 1 })
	r.CounterFunc("y_total", "", nil, func() float64 { return 1 })
	r.Declare("z_total", "", "counter")
	c.Inc()
	c.Add(10)
	g.Set(5)
	g.Inc()
	g.Dec()
	h.Observe(0.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics recorded values")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry rendered %q (%v)", sb.String(), err)
	}
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "Jobs.", nil)
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("depth", "Depth.", nil)
	g.Set(7)
	g.Inc()
	g.Dec()
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("hits_total", "h", Labels{"tier": "mem"})
	b := r.Counter("hits_total", "h", Labels{"tier": "mem"})
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	other := r.Counter("hits_total", "h", Labels{"tier": "disk"})
	if a == other {
		t.Fatal("distinct labels shared a counter")
	}
}

func TestTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering counter as gauge did not panic")
		}
	}()
	r.Gauge("a_total", "", nil)
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name did not panic")
		}
	}()
	r.Counter("bad-name", "", nil)
}

// TestNonFiniteBucketPanics: a +Inf bound (the +Inf bucket is
// implicit) would make every snapshot of the registry unencodable.
func TestNonFiniteBucketPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("non-finite bucket bound did not panic")
		}
	}()
	r.Histogram("inf_seconds", "", []float64{1, math.Inf(1)}, nil)
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.1, 1, 10}, nil)
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.05+0.5+0.5+5+50; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestHistogramMerge: observations gathered in batches and merged render
// exactly as the same values observed one by one. The values are
// multiples of 2⁻¹¹ (the engine's bounds among them), so every sum is
// exact whichever way it is grouped; a merged batch is empty, and a
// batch of a nil histogram only counts.
func TestHistogramMerge(t *testing.T) {
	bounds := ExpBuckets(25, 1.5, 12)
	var vals []float64
	for i := 0; i < 3000; i++ {
		switch i % 5 {
		case 0:
			vals = append(vals, bounds[i%len(bounds)]) // on a bound
		case 1:
			vals = append(vals, float64(i%4000)/4) // a run across buckets
		default:
			vals = append(vals, 240+float64(i%3)*80) // the bimodal pair
		}
	}
	vals = append(vals, 0, -1, 1e6)

	direct, merged := NewRegistry(), NewRegistry()
	hd := direct.Histogram("lat_ns", "Latency.", bounds, nil)
	hm := merged.Histogram("lat_ns", "Latency.", bounds, nil)
	b := hm.NewBatch()
	for i, v := range vals {
		hd.Observe(v)
		b.Observe(v)
		if i%1000 == 999 {
			hm.Merge(b)
			if b.Count() != 0 {
				t.Fatalf("batch holds %d after a merge", b.Count())
			}
		}
	}
	if b.Count() != uint64(len(vals)%1000) {
		t.Fatalf("batch count %d, want %d", b.Count(), len(vals)%1000)
	}
	hm.Merge(b)
	hm.Merge(b) // an empty batch changes nothing
	var want, got strings.Builder
	if err := direct.WritePrometheus(&want); err != nil {
		t.Fatal(err)
	}
	if err := merged.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("merged render differs:\n%s\nobserved one by one:\n%s", got.String(), want.String())
	}

	var none *Histogram
	nb := none.NewBatch()
	nb.Observe(1)
	nb.Observe(2)
	if nb.Count() != 2 {
		t.Fatalf("nil histogram's batch counted %d, want 2", nb.Count())
	}
	none.Merge(nb)
	if nb.Count() != 0 {
		t.Fatalf("merge into nil left %d in the batch", nb.Count())
	}
}

func TestRenderFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("dramdig_http_requests_total", "HTTP requests.", Labels{"route": "/v1/queue", "method": "GET", "code": "200"}).Add(3)
	r.Gauge("dramdig_queue_depth", "Pending jobs.", nil).Set(2)
	r.GaugeFunc("dramdig_store_entries", "LRU entries.", nil, func() float64 { return 11 })
	r.CounterFunc("dramdig_store_hits_total", "Store hits.", nil, func() float64 { return 42 })
	r.Declare("dramdig_engine_samples_total", "Raw samples.", "counter")

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP dramdig_http_requests_total HTTP requests.\n# TYPE dramdig_http_requests_total counter\n",
		`dramdig_http_requests_total{code="200",method="GET",route="/v1/queue"} 3`,
		"# TYPE dramdig_queue_depth gauge\ndramdig_queue_depth 2",
		"dramdig_store_entries 11",
		"dramdig_store_hits_total 42",
		// Declared-but-empty family still renders its header.
		"# TYPE dramdig_engine_samples_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Families render sorted by name.
	if strings.Index(out, "dramdig_engine_samples_total") > strings.Index(out, "dramdig_queue_depth") {
		t.Error("families not sorted by name")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "", Labels{"v": "a\"b\\c\nd"}).Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if want := `esc_total{v="a\"b\\c\nd"} 1`; !strings.Contains(sb.String(), want) {
		t.Errorf("escaped render missing %q:\n%s", want, sb.String())
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 10, 3)
	want := []float64{1, 10, 100}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
	if b := DefSecondsBuckets(); len(b) == 0 || b[0] != 100e-6 {
		t.Fatalf("DefSecondsBuckets = %v", b)
	}
}

// TestConcurrentUpdates exercises the atomic paths under the race
// detector: concurrent counter/gauge/histogram updates plus renders.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "", nil)
	g := r.Gauge("g", "", nil)
	h := r.Histogram("h_seconds", "", DefSecondsBuckets(), nil)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%7) * 0.001)
				if i%100 == 0 {
					var sb strings.Builder
					_ = r.WritePrometheus(&sb)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != workers*per {
		t.Fatalf("gauge = %d, want %d", g.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("hist count = %d, want %d", h.Count(), workers*per)
	}
}

// TestScrapeDuringRegistration: scraping must be safe while other
// goroutines register first-seen children — the HTTP middleware mints a
// new (route, method, code) child on the first request that needs it, so
// a concurrent scrape must not read the family's children slice
// unsynchronized. Regression test for a data race in WritePrometheus;
// run with -race.
func TestScrapeDuringRegistration(t *testing.T) {
	r := NewRegistry()
	done := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		for {
			select {
			case <-done:
				return
			default:
				var sb strings.Builder
				if err := r.WritePrometheus(&sb); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
			}
		}
	}()
	const goroutines, children = 4, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < children; i++ {
				code := strconv.Itoa(200 + (g*children+i)%400)
				route := "/r/" + strconv.Itoa(i)
				r.Counter("scrape_req_total", "Requests.", Labels{"route": route, "code": code}).Inc()
				r.Histogram("scrape_req_seconds", "Durations.", []float64{0.01, 0.1, 1}, Labels{"route": route}).Observe(0.05)
			}
		}(g)
	}
	wg.Wait()
	close(done)
	<-scraperDone
	// One final render must see every registered child.
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if !strings.Contains(sb.String(), `scrape_req_seconds_count{route="/r/0"}`) {
		t.Errorf("final render missing registered child:\n%s", sb.String())
	}
}

// TestConcurrentRegistration: many goroutines lazily registering the
// same children (the HTTP middleware's access pattern) must all observe
// the same fully-constructed instruments and lose no increments.
func TestConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	const goroutines, rounds = 8, 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				r.Counter("req_total", "Requests.", Labels{"code": "200"}).Inc()
				r.Histogram("req_seconds", "Durations.", []float64{0.01, 0.1, 1}, Labels{"code": "200"}).Observe(0.05)
				r.Gauge("inflight", "In flight.", nil).Inc()
			}
		}()
	}
	wg.Wait()
	const want = goroutines * rounds
	if got := r.Counter("req_total", "Requests.", Labels{"code": "200"}).Value(); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got := r.Histogram("req_seconds", "Durations.", []float64{0.01, 0.1, 1}, Labels{"code": "200"}).Count(); got != want {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
	if got := r.Gauge("inflight", "In flight.", nil).Value(); got != want {
		t.Errorf("gauge = %v, want %d", got, want)
	}
}

// TestGoldenScrape pins the full exposition output byte for byte for a
// registry exercising the format's edge cases at once: label values
// needing every escape the format defines (backslash, quote, newline),
// a Declare'd family with no children (header only), func-backed gauge
// and counter children, a labeled histogram, and family name ordering.
// Contains-style checks (the other render tests) can miss accidental
// extra lines or reordering; this one cannot.
func TestGoldenScrape(t *testing.T) {
	r := NewRegistry()
	r.Declare("app_empty_total", "Declared, never incremented.", "counter")
	r.Counter("app_esc_total", "Escaping.", Labels{"path": `C:\tmp`, "q": `say "hi"`, "nl": "a\nb"}).Add(2)
	r.GaugeFunc("app_fn_gauge", "Func gauge.", Labels{"kind": "fn"}, func() float64 { return 2.5 })
	r.CounterFunc("app_fn_total", "Func counter.", nil, func() float64 { return 7 })
	r.Histogram("app_lat_seconds", "Latency.", []float64{0.5, 1}, Labels{"op": "read"}).Observe(0.75)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP app_empty_total Declared, never incremented.
# TYPE app_empty_total counter
# HELP app_esc_total Escaping.
# TYPE app_esc_total counter
app_esc_total{nl="a\nb",path="C:\\tmp",q="say \"hi\""} 2
# HELP app_fn_gauge Func gauge.
# TYPE app_fn_gauge gauge
app_fn_gauge{kind="fn"} 2.5
# HELP app_fn_total Func counter.
# TYPE app_fn_total counter
app_fn_total 7
# HELP app_lat_seconds Latency.
# TYPE app_lat_seconds histogram
app_lat_seconds_bucket{op="read",le="0.5"} 0
app_lat_seconds_bucket{op="read",le="1"} 1
app_lat_seconds_bucket{op="read",le="+Inf"} 1
app_lat_seconds_sum{op="read"} 0.75
app_lat_seconds_count{op="read"} 1
`
	if got := sb.String(); got != want {
		t.Errorf("golden scrape mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
