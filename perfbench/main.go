// Command perfbench is the repository's end-to-end benchmark. It drives a
// real dramdigd over loopback HTTP and the dramdig facade in-process from
// one load-generator process, checks every mapping it receives against
// ground truth it derives itself, and prints one JSON result line last.
//
//	perfbench -daemon BIN --workload NAME --seed N --seconds N --trace 0|1
//
// perfbench/run.sh builds dramdigd and this command from the checkout and
// runs it; README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median. paper_fresh's set-up is one daemon boot, a few
// milliseconds, so it boots bootRepeats daemons before its first pass
// on top of the one each pass boots.
const (
	setupRepeats = 9
	bootRepeats  = 30
)

// daemonSeed is the campaign seed dramdigd maps a workload seed to: the
// daemon reads a zero seed as unset and substitutes 42, so the harness
// does the same and its oracle derives the machines the daemon maps.
func daemonSeed(seed int64) int64 {
	if seed == 0 {
		return 42
	}
	return seed
}

// metric is one reported number. n is the number of samples behind it,
// 0 when it is not a sample statistic.
type metric struct {
	name, unit string
	value      float64
	n          int
}

// tally counts mappings requested and mappings that failed, were refused
// or did not match ground truth.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) fail(n int, err error) {
	t.failed += n
	if len(t.errs) < 20 {
		t.errs = append(t.errs, err.Error())
	}
}

// bench is one run of one workload.
type bench struct {
	workload string
	seed     int64
	dur      time.Duration
	traced   bool
	daemon   string
	dir      string // private to this run; removed when it succeeds
	out      io.Writer
	tally    tally
	e2e      []metric
	layers   []metric
	traces   []*trace
	keep     bool // leave dir behind for inspection
}

var workloads = map[string]func(*bench) error{
	"paper_fresh":  (*bench).paperFresh,
	"replay_small": (*bench).replaySmall,
	"cached_serve": (*bench).cachedServe,
}

func main() {
	var (
		workload = flag.String("workload", "", "paper_fresh, replay_small or cached_serve")
		seed     = flag.Int64("seed", 1, "workload seed: every input is derived from it")
		seconds  = flag.Int("seconds", 30, "length of the measured phase in seconds")
		traceOn  = flag.Int("trace", 0, "1 runs the traced per-layer variant")
		daemon   = flag.String("daemon", "", "dramdigd binary to drive")
		workdir  = flag.String("workdir", ".bench_build", "directory for daemon state and span dumps")
	)
	flag.Parse()
	os.Exit(run(*workload, *seed, *seconds, *traceOn, *daemon, *workdir))
}

func run(workload string, seed int64, seconds, traceOn int, daemon, workdir string) int {
	fn, ok := workloads[workload]
	if !ok || seconds < 1 || (traceOn != 0 && traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload paper_fresh|replay_small|cached_serve, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	if workload != "replay_small" {
		if _, err := os.Stat(daemon); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: -daemon: %v\n", err)
			return 2
		}
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b := &bench{
		workload: workload, seed: daemonSeed(seed), dur: time.Duration(seconds) * time.Second,
		traced: traceOn == 1, daemon: daemon, dir: dir, out: os.Stdout,
	}
	fmt.Fprintf(b.out, "workload %s seed %d seconds %d trace %d\n", workload, seed, seconds, traceOn)

	host0, herr := readHostCPU()
	runErr := fn(b)
	host1, herr1 := readHostCPU()
	if herr == nil && herr1 == nil {
		// Printed, never gated: a run hit by a noisy neighbour shows here.
		fmt.Fprintf(b.out, "host_steal_share %.4f\n", stealShare(host0, host1))
	}
	if b.traced && len(b.traces) > 0 {
		path := filepath.Join(workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
		if err := writeSpans(path, b.traces); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		} else {
			fmt.Fprintf(b.out, "spans written to %s\n", path)
		}
	}
	for _, e := range b.tally.errs {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", e)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v (state kept in %s)\n", workload, runErr, dir)
		return 1
	}

	fmt.Fprintf(b.out, "error_ratio %.6g ratio (failed %d of %d mappings requested)\n",
		div(float64(b.tally.failed), float64(b.tally.attempted)), b.tally.failed, b.tally.attempted)
	reported := b.e2e
	if b.traced {
		reported = b.layers
	}
	res := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{b.tally.failed == 0, b.tally.attempted, b.tally.failed, map[string]map[string]any{}}
	for _, m := range reported {
		res.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(b.out, string(line))
	if !res.Correct || res.Attempted == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d mappings failed (state kept in %s)\n", b.tally.failed, b.tally.attempted, dir)
		return 1
	}
	if !b.keep {
		os.RemoveAll(dir)
	}
	return 0
}

// printMetrics writes one line per metric: name, value, unit, samples.
func (b *bench) printMetrics(ms []metric) {
	for _, m := range ms {
		n := ""
		if m.n > 0 {
			n = fmt.Sprintf("  (n=%d)", m.n)
		}
		fmt.Fprintf(b.out, "metric %-30s %14.6g %-14s%s\n", m.name, m.value, m.unit, n)
	}
}

// endToEnd records the untraced run's user-visible metrics: the ones
// BENCHMARK.json gates, then the others, printed for reading only. The
// tail percentiles rest on few samples beyond them, and throughput and
// CPU per mapping follow the median turnaround.
// simPer and measPer are the modelled cost per mapping of one turnaround's
// machines; every turnaround was checked to deliver the same, so they are
// exact for a given seed whatever the number of turnarounds.
func (b *bench) endToEnd(setup, turn []float64, mappings int, loopS, cpuS, simPer, measPer float64, rss []float64) {
	fm := float64(mappings)
	b.e2e = []metric{
		{"setup_s", "s", median(setup), len(setup)},
		{"turnaround_s_p50", "s", percentile(turn, 50), len(turn)},
		{"sim_s_per_machine", "sim_s", simPer, mappings},
		{"measurements_per_machine", "count", measPer, mappings},
		{"peak_rss_mb", "MB", median(rss), len(rss)},
	}
	b.printMetrics(b.e2e)
	b.printMetrics([]metric{
		{"turnaround_s_p90", "s", percentile(turn, 90), len(turn)},
		{"turnaround_s_p99", "s", percentile(turn, 99), len(turn)},
		{"machines_per_s", "1/s", div(fm, loopS), mappings},
		{"cpu_s_per_machine", "s", div(cpuS, fm), mappings},
	})
	fmt.Fprintf(b.out, "tail samples beyond p90: %d, beyond p99: %d\n", beyond(turn, 90), beyond(turn, 99))
}

// layerReport records and prints the traced run's per-layer metrics and
// checks this workload's predictions against them.
func (b *bench) layerReport(acc *layerAcc, untraced []float64, live *inproc) error {
	if acc.turnarounds == 0 || len(untraced) == 0 {
		return fmt.Errorf("a traced run needs a traced and an untraced turnaround; got %d and %d", acc.turnarounds, len(untraced))
	}
	p50 := median(untraced)
	b.layers = acc.layerMetrics(p50, live)
	fmt.Fprintf(b.out, "traced turnarounds %d, untraced %d (untraced turnaround_s_p50 %.6g s)\n",
		acc.turnarounds, len(untraced), p50)
	b.printMetrics(b.layers)
	var shares float64
	var zero []string
	for _, m := range b.layers {
		if strings.HasPrefix(m.name, "share.") {
			shares += m.value
		}
		if m.value == 0 {
			zero = append(zero, m.name)
		}
	}
	fmt.Fprintf(b.out, "shares sum to %.4f of the traced mean turnaround %.6g s\n", shares, mean(acc.turnaround))
	for _, name := range sortedKeys(acc.unknown) {
		fmt.Fprintf(b.out, "span %q has no layer; its self time is unattributed\n", name)
	}
	fmt.Fprintf(b.out, "reading 0 on %s (layer not on this path, or a count with no events): %s\n",
		b.workload, strings.Join(zero, " "))
	checkPredictions(b.out, b.workload, b.layers, mean(acc.turnaround), float64(acc.machines)/float64(acc.turnarounds))
	return nil
}
