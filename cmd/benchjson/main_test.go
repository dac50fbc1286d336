package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestParseAndBudget feeds five rounds of canned go test -bench output
// through the parser and the summary: a sub-benchmark's row keeps its
// custom metric, and one paired benchmark feeds three overhead rows
// whose per-round overheads give each verdict once.
func TestParseAndBudget(t *testing.T) {
	sides := []struct {
		cost           string
		pcts           [runsPerRow]float64
		median, lo, hi float64
		verdict        string
	}{
		{"within", [runsPerRow]float64{1, 2, 2.5, 3, 0.5}, 2, 0.5, 3, "within budget"},
		{"over", [runsPerRow]float64{3.1, 4, 5, 6, 7}, 5, 3.1, 7, "over budget"},
		{"unresolved", [runsPerRow]float64{2, 4, 2.9, 3.5, 1}, 2.9, 1, 4, "unresolved"},
	}
	var live, paired []run
	for k := 0; k < runsPerRow; k++ {
		line := "BenchmarkPaired-2   \t     300\t   3300000 ns/op\t   1000000 bare_ns_op"
		for i, s := range sides {
			line += fmt.Sprintf("\t %d %s_ns_op\t %g %s_overhead_pct", 1_000_000*(i+2)+k, s.cost, s.pcts[k], s.cost)
		}
		out := fmt.Sprintf("goos: linux\ngoarch: amd64\npkg: dramdig\n"+
			"BenchmarkEngineLiveVsReplay/live-2         \t    1000\t   %d ns/op\t   2953018 samples/s\n"+
			"%s\nPASS\nok  \tdramdig\t5.120s\n", 1_100_000-k*10_000, line)
		runs, err := parse([]byte(out))
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != 2 {
			t.Fatalf("round %d parsed %d result lines, want 2: %v", k, len(runs), runs)
		}
		live = append(live, runs["EngineLiveVsReplay/live"])
		paired = append(paired, runs["Paired"])
	}

	res, err := summarize(row{"live", ".", "EngineLiveVsReplay/live", ""}, live)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 5 || res.Iterations != 1000 || res.NsPerOp != 1_080_000 ||
		res.MinNsPerOp != 1_060_000 || res.MaxNsPerOp != 1_100_000 || res.Verdict != "" {
		t.Errorf("live row = %+v", res)
	}
	if len(res.Metrics) != 1 || res.Metrics["samples/s"] != 2953018 {
		t.Errorf("live metrics = %v, want samples/s alone", res.Metrics)
	}

	for i, s := range sides {
		res, err := summarize(row{s.cost + "_overhead", ".", "Paired", s.cost}, paired)
		if err != nil {
			t.Fatal(err)
		}
		ns := float64(1_000_000*(i+2) + 2) // the cost side's median round
		want := map[string]float64{
			"bare_ns_op":       1_000_000,
			s.cost + "_ns_op":  ns,
			"overhead_pct":     s.median,
			"overhead_pct_min": s.lo,
			"overhead_pct_max": s.hi,
			"budget_pct":       3,
		}
		if fmt.Sprint(res.Metrics) != fmt.Sprint(want) {
			t.Errorf("%s metrics = %v, want %v", res.Name, res.Metrics, want)
		}
		if res.NsPerOp != ns || res.MinNsPerOp != ns-2 || res.MaxNsPerOp != ns+2 || res.Iterations != 300 {
			t.Errorf("%s row = %+v, want the %s side's ns/op", res.Name, res, s.cost)
		}
		if res.Verdict != s.verdict {
			t.Errorf("%s verdict = %q, want %q", res.Name, res.Verdict, s.verdict)
		}
	}

	if _, err := summarize(row{"x", ".", "EngineLiveVsReplay/live", "missing"}, live); err == nil {
		t.Error("an overhead row whose benchmark reports no overhead summarized without error")
	}
}

// TestRowsNameBenchmarks: every row's benchmark is a Benchmark function
// of its package, so renaming one fails here and not only at the next
// regeneration.
func TestRowsNameBenchmarks(t *testing.T) {
	for _, r := range rows {
		top, sub, _ := strings.Cut(r.bench, "/")
		files, err := filepath.Glob(filepath.Join("..", "..", r.pkg, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			found = found || strings.Contains(string(src), "func Benchmark"+top+"(b *testing.B) {") &&
				(sub == "" || strings.Contains(string(src), `b.Run("`+sub+`"`))
		}
		if !found {
			t.Errorf("row %s: no Benchmark%s in %s", r.name, r.bench, r.pkg)
		}
	}
}
