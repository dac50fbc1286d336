package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"dramdig"
	"dramdig/internal/campaign"
	"dramdig/internal/machine"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{35, 20, 15, 50, 40}
	for _, c := range []struct {
		p    float64
		want float64
	}{{5, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {99, 50}, {100, 50}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of an even count = %v, want the lower middle 2", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}

	// Sample counts behind a tail: with 1000 samples 1..1000, p99 is 990
	// and ten samples lie beyond it; p90 has a hundred.
	var many []float64
	for i := 1000; i >= 1; i-- {
		many = append(many, float64(i))
	}
	if got := percentile(many, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := beyond(many, 99); got != 10 {
		t.Errorf("beyond p99 = %d, want 10", got)
	}
	if got := beyond(many, 90); got != 100 {
		t.Errorf("beyond p90 = %d, want 100", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: "p", Name: "parent", Start: 0, End: 100},
		{ID: "a", Parent: "p", Name: "a", Start: 10, End: 40},
		{ID: "b", Parent: "p", Name: "b", Start: 30, End: 60},
		{ID: "g", Parent: "a", Name: "grandchild", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	// The parent loses the union of its children, [10, 60], once.
	if self["p"] != 50 {
		t.Errorf("parent self = %d, want 50", self["p"])
	}
	// Where siblings overlap, the later one holds the instant.
	want := map[string]int64{"a": 15, "b": 30, "g": 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%s] = %d, want %d", id, self[id], w)
		}
	}
	var total int64
	for _, v := range self {
		total += v
	}
	if total != 100 {
		t.Errorf("self times sum to %d, want the covered 100", total)
	}
}

func TestSelfTimeAcrossBranches(t *testing.T) {
	// A client span waits while daemon work parented under another
	// client span runs; a child also outlives its parent.
	spans := []span{
		{ID: "r", Name: "turnaround", Start: 0, End: 100},
		{ID: "post", Parent: "r", Name: "client.post", Start: 0, End: 10},
		{ID: "srv", Parent: "post", Name: "POST /v1/campaigns", Start: 2, End: 8},
		{ID: "run", Parent: "srv", Name: "campaign.run", Start: 6, End: 70},
		{ID: "ev", Parent: "r", Name: "client.events", Start: 10, End: 80},
	}
	self := selfTimes(spans)
	want := map[string]int64{"r": 20, "post": 2, "srv": 4, "run": 64, "ev": 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%s] = %d, want %d", id, self[id], w)
		}
	}
}

func TestPromDelta(t *testing.T) {
	before := promSamples(`# HELP dramdig_wal_fsync_seconds WAL fsync latency.
# TYPE dramdig_wal_fsync_seconds histogram
dramdig_wal_fsync_seconds_bucket{le="0.001"} 3
dramdig_wal_fsync_seconds_bucket{le="+Inf"} 4
dramdig_wal_fsync_seconds_sum 0.0025
dramdig_wal_fsync_seconds_count 4
dramdig_http_requests_total{route="/v1/campaigns/{id}",note="a b"} 7
`)
	after := promSamples(`dramdig_wal_fsync_seconds_bucket{le="0.001"} 10
dramdig_wal_fsync_seconds_bucket{le="+Inf"} 12
dramdig_wal_fsync_seconds_sum 0.0065
dramdig_wal_fsync_seconds_count 12
dramdig_http_requests_total{route="/v1/campaigns/{id}",note="a b"} 9
dramdig_campaign_checkpoint_seconds_sum 1.5e-03
`)
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	if d := promDelta(before, after, "dramdig_wal_fsync_seconds_count"); d != 8 {
		t.Errorf("fsync count delta = %v, want 8", d)
	}
	if d := promDelta(before, after, "dramdig_wal_fsync_seconds_sum"); !near(d, 0.004) {
		t.Errorf("fsync sum delta = %v, want 0.004", d)
	}
	if d := promDelta(before, after, `dramdig_http_requests_total{route="/v1/campaigns/{id}",note="a b"}`); d != 2 {
		t.Errorf("labelled counter delta = %v, want 2", d)
	}
	if d := promDelta(before, after, "dramdig_campaign_checkpoint_seconds_sum"); !near(d, 0.0015) {
		t.Errorf("series new since the first scrape: delta = %v, want 0.0015", d)
	}
}

func TestOracleRejectsDoctoredMapping(t *testing.T) {
	const seed = 5
	o, err := newOracle([]int{1, 3}, seed)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := campaign.PaperSpec(1, seed)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(spec.Def, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	fp := spec.MachineFingerprint()
	truth := m.Truth().Canonicalize()
	body := func(machineFP string, mp *dramdig.Mapping, mappingFP string) []byte {
		b, err := json.Marshal(map[string]any{
			"fingerprint": machineFP, "machine": "No.1", "mapping": mp,
			"mapping_fingerprint": mappingFP, "sim_seconds": 1.5, "measurements": 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if _, err := o.checkRecord(fp, body(fp, truth, truth.Fingerprint())); err != nil {
		t.Fatalf("true record rejected: %v", err)
	}

	// The same mapping with two row bits swapped for column bits: a
	// different, still valid mapping under the truth's label.
	doctored, err := dramdig.NewCustomMachine(spec.Def, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	wrong := *doctored.Truth()
	wrong.RowBits = append([]uint(nil), wrong.RowBits...)
	wrong.ColBits = append([]uint(nil), wrong.ColBits...)
	wrong.RowBits[0], wrong.ColBits[len(wrong.ColBits)-1] = wrong.ColBits[len(wrong.ColBits)-1], wrong.RowBits[0]
	if wrong.Canonicalize().Fingerprint() == truth.Fingerprint() {
		t.Fatal("doctoring did not change the mapping")
	}
	other, err := campaign.PaperSpec(3, seed)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		fp   string
		body []byte
	}{
		"wrong mapping under the truth's fingerprint": {fp, body(fp, &wrong, truth.Fingerprint())},
		"wrong mapping, honestly labelled":            {fp, body(fp, &wrong, wrong.Canonicalize().Fingerprint())},
		"record for another machine":                  {fp, body(other.MachineFingerprint(), truth, truth.Fingerprint())},
		"machine never requested":                     {strings.Repeat("ab", 32), body(strings.Repeat("ab", 32), truth, truth.Fingerprint())},
		"no mapping":                                  {fp, body(fp, nil, truth.Fingerprint())},
		"not JSON":                                    {fp, []byte("<html>")},
	} {
		if _, err := o.checkRecord(c.fp, c.body); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := o.checkMapping(fp, &wrong); err == nil {
		t.Error("checkMapping accepted a doctored mapping")
	}
	if err := o.checkMapping(fp, truth); err != nil {
		t.Errorf("checkMapping rejected the truth: %v", err)
	}
}

// TestSeedDeterminism records the same settings twice under one seed and
// replays them, plainly and through the timing wrapper: recordings,
// mappings, simulated seconds and measurement counts must all repeat.
func TestSeedDeterminism(t *testing.T) {
	nos := []int{1, 7}
	const seed = 3
	a, ha, err := recordTraces(nos, seed)
	if err != nil {
		t.Fatal(err)
	}
	b, hb, err := recordTraces(nos, seed)
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("recordings differ under one seed: %s vs %s", ha, hb)
	}
	o, err := newOracle(nos, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].mappingFP != b[i].mappingFP || a[i].simS != b[i].simS || a[i].meas != b[i].meas {
			t.Errorf("%s: recordings disagree: %+v vs %+v", a[i].name, a[i], b[i])
		}
		src := dramdig.TraceSource(a[i].t, dramdig.ReplayStrict)
		res, err := dramdig.Run(t.Context(), src)
		if err := verifyReplay(o, a[i], res, err); err != nil {
			t.Error(err)
		}
		tr := newTrace()
		tr.begin("turnaround", "")
		res, c, err := runTimed(t.Context(), src, tr, tr.spans[0].ID, "trace.replay_pair")
		if err := verifyReplay(o, a[i], res, err); err != nil {
			t.Errorf("through the timing wrapper: %v", err)
		}
		if uint64(c.pairs) != res.Measurements {
			t.Errorf("%s: wrapper counted %d MeasurePair calls, engine reports %d", a[i].name, c.pairs, res.Measurements)
		}
	}
}

// TestTwoRunsOneSeed runs each workload twice under one seed against a
// freshly built daemon, once for a single turnaround and once for
// several: the mappings (the printed digest) and the modelled metrics
// must be identical, and every mapping verified.
func TestTwoRunsOneSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("builds dramdigd and runs every workload twice")
	}
	bin := buildDaemon(t)
	want := contractMetrics(t, "end_to_end")
	for wl, fn := range workloads {
		var digests [2]string
		var modelled [2]map[string]float64
		for i := range digests {
			var out bytes.Buffer
			dur := time.Duration(i)*300*time.Millisecond + time.Nanosecond
			b := &bench{workload: wl, seed: 7, dur: dur, daemon: bin, dir: t.TempDir(), out: &out}
			if err := fn(b); err != nil {
				t.Fatalf("%s run %d: %v", wl, i, err)
			}
			if b.tally.failed != 0 || b.tally.attempted == 0 {
				t.Fatalf("%s run %d: %d of %d mappings failed: %v", wl, i, b.tally.failed, b.tally.attempted, b.tally.errs)
			}
			for _, line := range strings.Split(out.String(), "\n") {
				if d, ok := strings.CutPrefix(line, "determinism_digest "); ok {
					digests[i] = d
				}
			}
			if got := metricNames(b.e2e); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: end-to-end metrics %v, BENCHMARK.json names %v", wl, got, want)
			}
			modelled[i] = map[string]float64{}
			for _, m := range b.e2e {
				if m.name == "sim_s_per_machine" || m.name == "measurements_per_machine" {
					modelled[i][m.name] = m.value
				}
			}
		}
		if digests[0] == "" || digests[0] != digests[1] {
			t.Errorf("%s: digests %q and %q", wl, digests[0], digests[1])
		}
		if len(modelled[0]) != 2 || !reflect.DeepEqual(modelled[0], modelled[1]) {
			t.Errorf("%s: modelled metrics %v and %v", wl, modelled[0], modelled[1])
		}
	}
}

// TestTracedRuns runs each workload's traced variant for its shortest
// length, one untraced and one traced turnaround: every mapping must
// verify (on paper_fresh, the in-process pass must also cost exactly
// what the daemon's jobs cost), the per-layer metrics must be the ones
// BENCHMARK.json names, and the simulator must show on paper_fresh only.
func TestTracedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds dramdigd and runs every workload traced")
	}
	bin := buildDaemon(t)
	want := contractMetrics(t, "per_layer")
	for wl, fn := range workloads {
		var out bytes.Buffer
		b := &bench{workload: wl, seed: 5, dur: time.Nanosecond, traced: true, daemon: bin, dir: t.TempDir(), out: &out}
		if err := fn(b); err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if b.tally.failed != 0 || b.tally.attempted == 0 {
			t.Fatalf("%s: %d of %d mappings failed: %v", wl, b.tally.failed, b.tally.attempted, b.tally.errs)
		}
		if got := metricNames(b.layers); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: per-layer metrics %v, BENCHMARK.json names %v", wl, got, want)
		}
		for _, m := range b.layers {
			if m.name == "memctrl.measure_pair_s" && (m.value > 0) != (wl == "paper_fresh") {
				t.Errorf("%s: memctrl.measure_pair_s = %v", wl, m.value)
			}
		}
	}
}

func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "dramdigd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/dramdigd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building dramdigd: %v\n%s", err, out)
	}
	return bin
}

// contractMetrics returns the sorted metric names BENCHMARK.json lists
// under key.
func contractMetrics(t *testing.T, key string) []string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var contract map[string]json.RawMessage
	var list []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(raw, &contract); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(contract[key], &list); err != nil {
		t.Fatalf("BENCHMARK.json %s: %v", key, err)
	}
	var names []string
	for _, m := range list {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

func metricNames(ms []metric) []string {
	var names []string
	for _, m := range ms {
		names = append(names, m.name)
	}
	sort.Strings(names)
	return names
}
