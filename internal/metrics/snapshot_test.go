package metrics

import (
	"encoding/json"
	"math"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSnapshotExport: a snapshot carries every family kind with its
// values, children sorted deterministically, and Total sums children.
func TestSnapshotExport(t *testing.T) {
	r := NewRegistry()
	r.Counter("s_requests_total", "Requests.", Labels{"route": "/b"}).Add(2)
	r.Counter("s_requests_total", "Requests.", Labels{"route": "/a"}).Add(3)
	r.Gauge("s_depth", "Depth.", nil).Set(7)
	r.GaugeFunc("s_live", "Live.", nil, func() float64 { return 1.5 })
	h := r.Histogram("s_lat_seconds", "Latency.", []float64{1, 2}, nil)
	h.Observe(0.5)
	h.Observe(3)

	snap := r.Snapshot()
	if len(snap.Families) != 4 {
		t.Fatalf("families = %d, want 4", len(snap.Families))
	}
	// Families sorted by name; children by label signature.
	if snap.Families[0].Name != "s_depth" || snap.Families[3].Name != "s_requests_total" {
		t.Fatalf("families not sorted: %+v", snap.Families)
	}
	req := snap.Families[3]
	if req.Children[0].Labels["route"] != "/a" || req.Children[0].Value != 3 {
		t.Fatalf("children not sorted by labels: %+v", req.Children)
	}
	if v, ok := snap.Total("s_requests_total"); !ok || v != 5 {
		t.Fatalf("Total(s_requests_total) = %v, %v; want 5, true", v, ok)
	}
	if v, ok := snap.Total("s_live"); !ok || v != 1.5 {
		t.Fatalf("Total(s_live) = %v, %v", v, ok)
	}
	if v, ok := snap.Total("s_lat_seconds"); !ok || v != 2 {
		t.Fatalf("Total(s_lat_seconds) = %v, %v; want observation count 2", v, ok)
	}
	if _, ok := snap.Total("missing"); ok {
		t.Fatal("Total(missing) reported present")
	}
	var hist *FamilySnapshot
	for i := range snap.Families {
		if snap.Families[i].Name == "s_lat_seconds" {
			hist = &snap.Families[i]
		}
	}
	c := hist.Children[0]
	if len(c.BucketCounts) != 3 || c.BucketCounts[0] != 1 || c.BucketCounts[2] != 1 || c.Count != 2 || c.Sum != 3.5 {
		t.Fatalf("histogram child = %+v", c)
	}
	// A nil registry snapshots to empty, not nil-panic.
	var nilReg *Registry
	if s := nilReg.Snapshot(); len(s.Families) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

// TestFederationGolden locks the federated exposition output byte for
// byte: instance-label injection, the exported_instance collision
// rename, label-value escaping, two workers sharing a family name, a
// kind conflict resolved deterministically, and a reaped worker
// removed. The snapshots reach the federation as JSON bytes, as they
// do on the heartbeat wire.
func TestFederationGolden(t *testing.T) {
	w1 := NewRegistry()
	w1.Counter("app_requests_total", "HTTP requests.", Labels{"route": "/v1/x"}).Add(3)
	h := w1.Histogram("app_latency_seconds", "Request latency.", []float64{1, 2}, nil)
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(3)
	w1.Counter("esc_total", "Escaping.", Labels{"v": "a\"b\\c\nd"}).Inc()
	w1.Counter("collide_total", "Instance-labeled already.", Labels{"instance": "w1-self"}).Add(7)
	w1.Counter("mixed_total", "Mixed.", nil).Inc()

	w2 := NewRegistry()
	w2.Counter("app_requests_total", "HTTP requests.", nil).Add(10)
	w2.Gauge("only_w2", "Only on w2.", nil).Set(4)
	w2.Gauge("mixed_total_gauge_shadow", "", nil) // decoy; never rendered under mixed_total

	fed := NewFederation()
	at := time.Unix(1000, 0)
	update := func(name string, snap *Snapshot) {
		t.Helper()
		data, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		if err := fed.Update(name, data, at); err != nil {
			t.Fatal(err)
		}
	}
	update("w1", w1.Snapshot())
	update("w2", w2.Snapshot())
	// w2 also reports mixed_total as a gauge — a kind conflict. Sorted
	// instance order makes w1's counter win, every render.
	update("w2b", &Snapshot{Families: []FamilySnapshot{{
		Name: "mixed_total", Kind: "gauge",
		Children: []ChildSnapshot{{Value: 9}},
	}}})
	// A worker the coordinator reaped: its samples leave with it.
	update("w3-reaped", &Snapshot{Families: []FamilySnapshot{{
		Name: "app_requests_total", Kind: "counter",
		Children: []ChildSnapshot{{Value: 999}},
	}}})
	if !fed.Remove("w3-reaped") {
		t.Fatal("Remove(w3-reaped) = false")
	}

	var sb strings.Builder
	if err := fed.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP app_latency_seconds Request latency.
# TYPE app_latency_seconds histogram
app_latency_seconds_bucket{instance="w1",le="1"} 1
app_latency_seconds_bucket{instance="w1",le="2"} 2
app_latency_seconds_bucket{instance="w1",le="+Inf"} 3
app_latency_seconds_sum{instance="w1"} 5
app_latency_seconds_count{instance="w1"} 3
# HELP app_requests_total HTTP requests.
# TYPE app_requests_total counter
app_requests_total{instance="w1",route="/v1/x"} 3
app_requests_total{instance="w2"} 10
# HELP collide_total Instance-labeled already.
# TYPE collide_total counter
collide_total{exported_instance="w1-self",instance="w1"} 7
# HELP esc_total Escaping.
# TYPE esc_total counter
esc_total{instance="w1",v="a\"b\\c\nd"} 1
# HELP mixed_total Mixed.
# TYPE mixed_total counter
mixed_total{instance="w1"} 1
# TYPE mixed_total_gauge_shadow gauge
mixed_total_gauge_shadow{instance="w2"} 0
# HELP only_w2 Only on w2.
# TYPE only_w2 gauge
only_w2{instance="w2"} 4
`
	if got := sb.String(); got != want {
		t.Errorf("federated exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// Rendering twice is byte-identical — the determinism the golden
	// output depends on.
	var sb2 strings.Builder
	if err := fed.WritePrometheus(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb.String() != sb2.String() {
		t.Error("two renders of the same federation differ")
	}
}

// TestPagesShareOneWriter: the fleet page is the registry's own page
// with an instance label, line for line, because one writer renders
// both. The registry holds a plain counter and a func gauge past 10^6,
// a fractional func gauge, a labelled histogram and a label value that
// needs escaping; its snapshot reaches the federation as JSON, as on the
// heartbeat wire.
func TestPagesShareOneWriter(t *testing.T) {
	r := NewRegistry()
	r.Counter("one_requests_total", "Requests.", nil).Add(4512055)
	r.GaugeFunc("one_disk_bytes", "Disk bytes.", nil, func() float64 { return 20971520 })
	r.GaugeFunc("one_ratio", "A fraction.", nil, func() float64 { return 0.375 })
	h := r.Histogram("one_lat_seconds", "Latency.", []float64{0.5, 1}, Labels{"op": "read"})
	h.Observe(0.25)
	h.Observe(3)
	r.Counter("one_esc_total", "Escaping.", Labels{"path": `C:\tmp "q"` + "\n"}).Inc()

	var own, fleet strings.Builder
	if err := r.WritePrometheus(&own); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	fed := NewFederation()
	if err := fed.Update("x", data, time.Unix(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := fed.WritePrometheus(&fleet); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"one_requests_total 4512055\n", "one_disk_bytes 20971520\n", "one_ratio 0.375\n"} {
		if !strings.Contains(own.String(), want) {
			t.Errorf("registry page lacks %q:\n%s", want, own.String())
		}
	}
	ownLines := strings.Split(own.String(), "\n")
	fleetLines := strings.Split(fleet.String(), "\n")
	if len(ownLines) != len(fleetLines) {
		t.Fatalf("registry page has %d lines, fleet page %d:\n%s\n%s", len(ownLines), len(fleetLines), own.String(), fleet.String())
	}
	strip := strings.NewReplacer(`{instance="x"}`, "", `instance="x",`, "", `,instance="x"`, "")
	for i, line := range fleetLines {
		if got := strip.Replace(line); got != ownLines[i] {
			t.Errorf("line %d: fleet %q reads %q without its instance; registry %q", i, line, got, ownLines[i])
		}
	}
}

// TestFederationConcurrentRenders: concurrent renders share the stored
// snapshots, so sorting a worker's children must not reorder them in
// place. Run with -race.
func TestFederationConcurrentRenders(t *testing.T) {
	fed := NewFederation()
	raw := []byte(`{"families":[{"name":"c_total","kind":"counter","children":[{"labels":{"b":"1"},"value":1},{"labels":{"a":"1"},"value":2}]}]}`)
	if err := fed.Update("w", raw, time.Unix(1, 0)); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE c_total counter\n" +
		`c_total{a="1",instance="w"} 2` + "\n" +
		`c_total{b="1",instance="w"} 1` + "\n"
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				var sb strings.Builder
				if err := fed.WritePrometheus(&sb); err != nil || sb.String() != want {
					t.Errorf("render = %q, %v; want %q", sb.String(), err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestFederationLifecycle: Update/Remove/Info bookkeeping, and
// nil-receiver safety.
func TestFederationLifecycle(t *testing.T) {
	fed := NewFederation()
	at := time.Unix(2000, 0)
	if err := fed.Update("b", []byte(`{}`), at); err != nil {
		t.Fatal(err)
	}
	if err := fed.Update("a", []byte(`{"families":[{"name":"x","kind":"gauge"}]}`), at.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	snap, when, ok := fed.Info("a")
	if !ok || len(snap.Families) != 1 || !when.Equal(at.Add(time.Second)) {
		t.Fatalf("Info(a) = %v, %v, %v", snap, when, ok)
	}
	if !fed.Remove("b") || fed.Remove("b") {
		t.Fatal("Remove bookkeeping wrong")
	}
	if _, _, ok := fed.Info("b"); ok {
		t.Fatal("removed instance still present")
	}
	// An empty instance name is refused, not stored.
	if err := fed.Update("", []byte(`{}`), at); err == nil {
		t.Fatal("Update with an empty instance accepted")
	}
	if _, _, ok := fed.Info(""); ok {
		t.Fatal("empty instance stored")
	}
	var nilFed *Federation
	if err := nilFed.Update("x", []byte(`{}`), at); err != nil {
		t.Fatal(err)
	}
	if nilFed.Remove("x") {
		t.Fatal("nil federation not a no-op")
	}
	if _, _, ok := nilFed.Info("x"); ok {
		t.Fatal("nil federation reports an instance")
	}
	if err := nilFed.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

// TestFederationRenameDeterministic: a worker child carrying both an
// "instance" and an "exported_instance" label keeps both, under the
// same names on every render.
func TestFederationRenameDeterministic(t *testing.T) {
	fed := NewFederation()
	raw := []byte(`{"families":[{"name":"c_total","kind":"counter","children":[{"labels":{"instance":"a","exported_instance":"b"},"value":1}]}]}`)
	if err := fed.Update("w", raw, time.Unix(1, 0)); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE c_total counter\n" +
		`c_total{exported_exported_instance="a",exported_instance="b",instance="w"} 1` + "\n"
	for i := 0; i < 20; i++ {
		var sb strings.Builder
		if err := fed.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if sb.String() != want {
			t.Fatalf("render %d:\n got %q\nwant %q", i, sb.String(), want)
		}
	}
}

// TestSnapshotMarshalRoundTrip: a snapshot survives the wire — stdlib
// JSON out, Federation.Update in — exactly, awkward strings and
// omitted zero fields included, and a non-finite callback reading
// snapshots as 0 so it can never make the payload unencodable.
func TestSnapshotMarshalRoundTrip(t *testing.T) {
	orig := &Snapshot{Families: []FamilySnapshot{
		{
			Name:    "h_lat",
			Help:    "quo\"te back\\slash new\nline tab\tctl\x01 и utf✓",
			Kind:    "histogram",
			Buckets: []float64{1e-9, 0.001, 2.5, 4e6},
			Children: []ChildSnapshot{
				{Labels: Labels{"b": "2", "a": "1"}, BucketCounts: []uint64{0, 3, 0, 1, 2}, Sum: 12.75, Count: 6},
				{BucketCounts: []uint64{1, 0, 0, 0, 0}, Sum: 0.0005, Count: 1},
			},
		},
		{Name: "c_total", Kind: "counter", Children: []ChildSnapshot{{Value: 41}}},
		{Name: "g_zero", Kind: "gauge", Children: []ChildSnapshot{{}}},
	}}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	fed := NewFederation()
	if err := fed.Update("w", data, time.Unix(1, 0)); err != nil {
		t.Fatal(err)
	}
	got, _, _ := fed.Info("w")
	if !reflect.DeepEqual(got, orig) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, orig)
	}
	if d, _ := json.Marshal(&Snapshot{}); string(d) != "{}" {
		t.Fatalf("empty snapshot = %s", d)
	}

	r := NewRegistry()
	r.GaugeFunc("g_nan", "NaN.", nil, func() float64 { return math.NaN() })
	r.CounterFunc("c_inf_total", "Inf.", nil, func() float64 { return math.Inf(1) })
	r.Histogram("h_inf", "Inf sum.", []float64{1}, nil).Observe(math.Inf(-1))
	snap := r.Snapshot()
	data, err = json.Marshal(snap)
	if err != nil {
		t.Fatalf("non-finite readings made the snapshot unencodable: %v", err)
	}
	for _, name := range []string{"g_nan", "c_inf_total"} {
		if v, ok := snap.Total(name); !ok || v != 0 {
			t.Fatalf("Total(%s) = %v, %v; want 0", name, v, ok)
		}
	}
	if err := fed.Update("w", data, time.Unix(2, 0)); err != nil {
		t.Fatal(err)
	}
}

// TestFederationUpdateRefuses: a payload that does not decode, or that
// names a family, kind or label the exposition format cannot carry, is
// refused and the instance keeps its previous snapshot. Each forged
// payload would otherwise put lines of its choosing on the page.
func TestFederationUpdateRefuses(t *testing.T) {
	fed := NewFederation()
	at := time.Unix(3000, 0)
	good := []byte(`{"families":[{"name":"f_total","help":"Fed counter.","kind":"counter","children":[{"value":7}]}]}`)
	if err := fed.Update("w1", good, at); err != nil {
		t.Fatal(err)
	}
	prev, _, _ := fed.Info("w1")
	var sb strings.Builder
	if err := fed.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	page := sb.String()
	for _, bad := range []string{
		`{nope`,
		`{"families":"nonsense"}`,
		`{"families":[{"name":"x 1\nforged2_total","kind":"counter"}]}`,
		`{"families":[{"name":"x_total","kind":"counter\nforged3_total 7"}]}`,
		`{"families":[{"name":"x_total","kind":"counter","children":[{"labels":{"a\"} 1\nforged_total{x=\"":"v"},"value":1}]}]}`,
		`{"families":[{"name":"9x","kind":"gauge"}]}`,
		`{"families":[{"name":"x","kind":"summary"}]}`,
		`{"families":[{"name":"x","kind":"gauge","children":[{"labels":{"a:b":"v"}}]}]}`,
		`{"families":[{"name":"x","kind":"gauge","children":[{"value":1e400}]}]}`,
		`{"families":[{"name":"h","kind":"histogram","buckets":[2,1],"children":[{"bucket_counts":[1,1,1],"sum":3,"count":3}]}]}`,
	} {
		if err := fed.Update("w1", []byte(bad), at.Add(time.Minute)); err == nil {
			t.Errorf("Update accepted %s", bad)
		}
		snap, when, ok := fed.Info("w1")
		if !ok || snap != prev || !when.Equal(at) {
			t.Fatalf("refused %s replaced the previous snapshot", bad)
		}
	}
	sb.Reset()
	if err := fed.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != page {
		t.Fatalf("refused payloads changed the page:\n got %s\nwant %s", sb.String(), page)
	}
	// A worker that shipped nothing valid yet has no row at all.
	if err := fed.Update("w2", []byte(`{nope`), at); err == nil {
		t.Fatal("Update accepted malformed bytes")
	}
	if _, _, ok := fed.Info("w2"); ok {
		t.Fatal("refused first snapshot created an instance")
	}
}

// FuzzSnapshotIngest feeds arbitrary bytes to Federation.Update, the
// coordinator's decoder of heartbeat payloads. Update must never panic,
// a refused payload must leave the previous snapshot in place, every
// line of the rendered page must be a HELP line, a TYPE line naming a
// valid family and kind, or a sample of the family the last TYPE
// announced that carries an injected instance label, and two renders
// must agree.
func FuzzSnapshotIngest(f *testing.F) {
	counter := NewRegistry()
	counter.Counter("seed_requests_total", "Requests.", Labels{"route": "/a", "instance": "self"}).Add(3)
	hist := NewRegistry()
	hist.Histogram("seed_latency_seconds", "Latency.", []float64{0.1, 1}, Labels{"le": "x"}).Observe(0.5)
	var base []byte
	for _, r := range []*Registry{counter, hist} {
		data, err := json.Marshal(r.Snapshot())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		base = data
	}
	f.Add([]byte(`{"families":[{"name":"x 1\nforged2_total","kind":"counter"}]}`))
	f.Add([]byte(`{nope`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		fed := NewFederation()
		for _, inst := range []string{"w0", "w1"} {
			if err := fed.Update(inst, base, time.Unix(1, 0)); err != nil {
				t.Fatal(err)
			}
		}
		prev, _, _ := fed.Info("w1")
		if err := fed.Update("w1", raw, time.Unix(2, 0)); err != nil {
			if got, _, _ := fed.Info("w1"); got != prev {
				t.Fatalf("refused payload (%v) replaced the previous snapshot", err)
			}
		}
		var sb, again strings.Builder
		if err := fed.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		checkExposition(t, sb.String(), "w0", "w1")
		if fed.WritePrometheus(&again); again.String() != sb.String() {
			t.Fatal("two renders of the same federation differ")
		}
	})
}

// sampleRE matches one sample line: a metric name, an optional label
// set of name="value" pairs whose values escape only \\, \" and \n,
// and a value. labelRE picks the pairs out of a matched label set.
var (
	labelPair = `[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*"`
	sampleRE  = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(` + labelPair + `(?:,` + labelPair + `)*)\})? (\S+)$`)
	labelRE   = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"`)
)

// checkExposition fails t unless every line of page is a HELP line, a
// TYPE line with a valid name and kind, or a sample of the family the
// last TYPE line announced whose labels include instance=<one of
// instances>.
func checkExposition(t *testing.T, page string, instances ...string) {
	t.Helper()
	var fam string
	var kind metricKind
	for _, line := range strings.Split(strings.TrimSuffix(page, "\n"), "\n") {
		switch {
		case line == "" && page == "":
		case strings.HasPrefix(line, "# HELP "):
			if name, _, _ := strings.Cut(line[len("# HELP "):], " "); !validName(name, true) {
				t.Fatalf("HELP line names an invalid family: %q", line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Split(line[len("# TYPE "):], " ")
			if len(parts) != 2 || !validName(parts[0], true) || !metricKind(parts[1]).valid() {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			fam, kind = parts[0], metricKind(parts[1])
		default:
			m := sampleRE.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("malformed sample line: %q", line)
			}
			if _, err := strconv.ParseFloat(m[3], 64); err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			ok := m[1] == fam
			if kind == kindHistogram {
				ok = m[1] == fam+"_bucket" || m[1] == fam+"_sum" || m[1] == fam+"_count"
			}
			if fam == "" || !ok {
				t.Fatalf("sample %q is not of the announced family %s (%s)", line, fam, kind)
			}
			found := false
			for _, p := range labelRE.FindAllStringSubmatch(m[2], -1) {
				found = found || p[1] == "instance" && slices.Contains(instances, p[2])
			}
			if !found {
				t.Fatalf("sample %q carries no injected instance label", line)
			}
		}
	}
}
