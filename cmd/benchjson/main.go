// Command benchjson runs the benchmarks behind BENCH_campaign.json and
// writes the document, so their trajectory can be tracked across commits:
//
//	go run ./cmd/benchjson [-o BENCH_campaign.json]
//
// Run it from the module root. Every row is one Benchmark function of
// its package. The runner builds each package's test binary with go test
// -c and runs every row's benchmark runsPerRow times, one process at a
// time and round by round, so a slow phase of the host hits every row
// alike. A row records its median run with the min and max ns/op.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// runsPerRow is how many times every row runs. One run cannot resolve
// a few percent on a shared host: the fsync-bound heartbeat alone moved
// by more than 10% between single runs.
const runsPerRow = 5

// overheadBudgetPct is what instrumentation may cost over the bare run.
const overheadBudgetPct = 3.0

// benchResult is one row of the JSON document.
type benchResult struct {
	Name       string             `json:"name"`
	Runs       int                `json:"runs"`
	Iterations int                `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	MinNsPerOp float64            `json:"min_ns_per_op"`
	MaxNsPerOp float64            `json:"max_ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
	// Verdict grades an overhead row against overheadBudgetPct: "within
	// budget" when every run's overhead is within it, "over budget" when
	// every run's exceeds it, and "unresolved" otherwise.
	Verdict string `json:"verdict,omitempty"`
}

type document struct {
	CreatedUnix int64         `json:"created_unix"`
	GoVersion   string        `json:"go_version"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	Benchmarks  []benchResult `json:"benchmarks"`
}

// row maps a document row to the benchmark that measures it: its
// package directory, relative to the module root, and its name without
// "Benchmark". On an overhead row, cost names the side the row grades:
// the benchmark reports that side's time per run as cost+"_ns_op" (the
// row's ns/op), the bare side's as "bare_ns_op", and the run's overhead
// in percent as cost+"_overhead_pct", alternating the sides in one
// process.
type row struct{ name, pkg, bench, cost string }

// rows are the document's rows, in output order.
var rows = []row{
	{"engine_live", ".", "EngineLiveVsReplay/live", ""},
	{"queue_submit", "./internal/queue", "SubmitDurable", ""},
	{"queue_submit_batched", "./internal/queue", "SubmitParallel", ""},
	{"queue_submit_memory", "./internal/queue", "SubmitMemory", ""},
	{"queue_recover", "./internal/queue", "Recover", ""},
	{"store_put_segment", "./internal/store", "PutSegment", ""},
	{"store_read_cached", "./internal/store", "ReadCached", ""},
	{"store_gc_sweep", "./internal/store", "GCSweep", ""},
	{"metrics_overhead", ".", "EngineOverhead", "instrumented"},
	{"tracing_overhead", ".", "EngineOverhead", "traced"},
	{"heartbeat_snapshot_overhead", "./internal/cluster", "HeartbeatSnapshot", "snapshot"},
}

// run is one result line: its iterations and each unit's value, ns/op too.
type run struct {
	n       int
	metrics map[string]float64
}

func main() {
	out := flag.String("o", "BENCH_campaign.json", "output file (- for stdout)")
	flag.Parse()
	results, err := measure()
	check(err)
	doc := document{
		CreatedUnix: time.Now().Unix(),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}
	for _, r := range rows {
		res, err := summarize(r, results[r.pkg+" "+r.bench])
		check(err)
		doc.Benchmarks = append(doc.Benchmarks, res)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	check(err)
	data = append(data, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(data)
	} else {
		err = os.WriteFile(*out, data, 0o644)
	}
	check(err)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// measure builds each package's test binary, then runs every distinct
// benchmark runsPerRow times round-robin, one process at a time. It
// returns the runs by package and benchmark, one per round.
func measure() (map[string][]run, error) {
	tmp, err := os.MkdirTemp("", "benchjson")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	bins := map[string]string{}
	for _, r := range rows {
		if bins[r.pkg] == "" {
			bins[r.pkg] = filepath.Join(tmp, fmt.Sprintf("%d.test", len(bins)))
			cmd := exec.Command("go", "test", "-c", "-o", bins[r.pkg], r.pkg)
			cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
			if err := cmd.Run(); err != nil {
				return nil, fmt.Errorf("build %s: %w", r.pkg, err)
			}
		}
	}
	results := map[string][]run{}
	for round := 1; round <= runsPerRow; round++ {
		for _, b := range rows {
			key := b.pkg + " " + b.bench
			if len(results[key]) == round {
				continue // an earlier row ran this benchmark this round
			}
			// Each level of a sub-benchmark's name is anchored on its own.
			pattern := "^Benchmark" + strings.ReplaceAll(b.bench, "/", "$/^") + "$"
			cmd := exec.Command(bins[b.pkg], "-test.run", "^$", "-test.bench", pattern, "-test.timeout", "10m")
			cmd.Dir, cmd.Stderr = b.pkg, os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return nil, fmt.Errorf("%s: %w\n%s", key, err, out)
			}
			runs, err := parse(out)
			if err != nil {
				return nil, err
			}
			r, ok := runs[b.bench]
			if !ok {
				return nil, fmt.Errorf("%s: no result line in\n%s", key, out)
			}
			results[key] = append(results[key], r)
			fmt.Fprintf(os.Stderr, "benchjson: round %d/%d %-24s %v\n", round, runsPerRow, b.bench, r.metrics)
		}
	}
	return results, nil
}

// procSuffix is the -GOMAXPROCS suffix go test gives a benchmark's name.
var procSuffix = regexp.MustCompile(`-[0-9]+$`)

// parse reads go test -bench output into its result lines, keyed by
// benchmark name without "Benchmark" and procSuffix.
func parse(out []byte) (map[string]run, error) {
	runs := map[string]run{}
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		n, err := strconv.Atoi(f[1])
		if err != nil {
			continue
		}
		name := procSuffix.ReplaceAllString(strings.TrimPrefix(f[0], "Benchmark"), "")
		r := run{n: n, metrics: map[string]float64{}}
		for i := 2; i < len(f); i += 2 {
			if r.metrics[f[i+1]], err = strconv.ParseFloat(f[i], 64); err != nil {
				return nil, fmt.Errorf("benchmark line %q: %w", line, err)
			}
		}
		runs[name] = r
	}
	return runs, nil
}

// summarize folds one row's runs into its median run's figures, the
// min and max ns/op and, on an overhead row, the verdict.
func summarize(r row, runs []run) (benchResult, error) {
	key := "ns/op"
	if r.cost != "" {
		key = r.cost + "_ns_op"
	}
	ns := func(x run) float64 { return x.metrics[key] }
	sorted := slices.SortedFunc(slices.Values(runs), func(a, b run) int { return cmp.Compare(ns(a), ns(b)) })
	med := sorted[len(sorted)/2]
	res := benchResult{
		Name:       r.name,
		Runs:       len(runs),
		Iterations: med.n,
		NsPerOp:    ns(med),
		MinNsPerOp: ns(sorted[0]),
		MaxNsPerOp: ns(sorted[len(sorted)-1]),
		Metrics:    maps.Clone(med.metrics),
	}
	if r.cost == "" {
		delete(res.Metrics, "ns/op")
		return res, nil
	}
	pcts := make([]float64, len(runs))
	for k, x := range runs {
		var ok bool
		if pcts[k], ok = x.metrics[r.cost+"_overhead_pct"]; !ok {
			return res, fmt.Errorf("%s: %s reports no %s_overhead_pct", r.name, r.bench, r.cost)
		}
	}
	slices.Sort(pcts)
	res.Metrics = map[string]float64{
		"bare_ns_op":       med.metrics["bare_ns_op"],
		key:                ns(med),
		"overhead_pct":     pcts[len(pcts)/2],
		"overhead_pct_min": pcts[0],
		"overhead_pct_max": pcts[len(pcts)-1],
		"budget_pct":       overheadBudgetPct,
	}
	switch {
	case pcts[len(pcts)-1] <= overheadBudgetPct:
		res.Verdict = "within budget"
	case pcts[0] > overheadBudgetPct:
		res.Verdict = "over budget"
	default:
		res.Verdict = "unresolved"
	}
	return res, nil
}
