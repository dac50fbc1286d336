package eval

import (
	"bytes"
	"strings"
	"testing"
)

// TestTable2AllMatch asserts the central claim: DRAMDig recovers a
// mapping equivalent to ground truth on all nine settings.
func TestTable2AllMatch(t *testing.T) {
	rows, err := Table2(Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("%d rows, want 9", len(rows))
	}
	for _, r := range rows {
		if !r.Match {
			t.Errorf("No.%d: recovered mapping not equivalent to ground truth", r.No)
		}
		if r.SimSeconds <= 0 || r.SimSeconds > 1800 {
			t.Errorf("No.%d: %f simulated seconds outside the minutes regime", r.No, r.SimSeconds)
		}
		if r.SelectedAddrs < 1024 {
			t.Errorf("No.%d: only %d selected addresses", r.No, r.SelectedAddrs)
		}
	}
	var buf bytes.Buffer
	RenderTable2(&buf, rows)
	out := buf.String()
	for _, want := range []string{"No.1", "No.9", "Sandy Bridge", "Coffee Lake", "(14, 17)"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q", want)
		}
	}
}

// TestFigure2Shape asserts the paper's Figure 2 shape: DRAMA is slower
// than DRAMDig on every setting, under either stop rule, and only
// No.3/No.7 hit the 2-hour cap. The early stop must also beat the
// paper's rule everywhere.
func TestFigure2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both tools on nine machines")
	}
	rows, err := Figure2(Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var digAvg float64
	for _, r := range rows {
		digAvg += r.DRAMDigPaperSec
		if r.DRAMASec <= r.DRAMDigPaperSec {
			t.Errorf("No.%d: DRAMA (%.0f s) not slower than DRAMDig under the paper's rule (%.0f s)", r.No, r.DRAMASec, r.DRAMDigPaperSec)
		}
		if r.DRAMDigSec >= r.DRAMDigPaperSec {
			t.Errorf("No.%d: early stop (%.0f s) not faster than the paper's rule (%.0f s)", r.No, r.DRAMDigSec, r.DRAMDigPaperSec)
		}
		switch r.No {
		case 3, 7:
			if !r.DRAMATimeout {
				t.Errorf("No.%d: DRAMA should time out (paper §IV-B)", r.No)
			}
		case 1, 4, 8:
			if r.DRAMATimeout {
				t.Errorf("No.%d: DRAMA should converge", r.No)
			}
		}
	}
	digAvg /= float64(len(rows))
	if digAvg > 600 {
		t.Errorf("DRAMDig average %.0f s; paper reports minutes (avg 7.8 min)", digAvg)
	}
	var buf bytes.Buffer
	RenderFigure2(&buf, rows)
	if !strings.Contains(buf.String(), "killed") {
		t.Error("rendered figure does not flag the killed DRAMA runs")
	}
}

// TestTable3Shape asserts the rowhammer comparison: DRAMDig's mapping
// induces strictly more flips than DRAMA's on every Table III machine,
// with the per-machine magnitudes in the paper's regime.
func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs DRAMA five times per machine")
	}
	rows, err := Table3(Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	byNo := map[int]Table3Row{}
	for _, r := range rows {
		byNo[r.No] = r
		if r.DigTotal <= r.DramaTotal {
			t.Errorf("No.%d: DRAMDig total %d not above DRAMA total %d", r.No, r.DigTotal, r.DramaTotal)
		}
		for tst, flips := range r.Dig {
			if flips == 0 {
				t.Errorf("No.%d T%d: DRAMDig induced no flips", r.No, tst+1)
			}
		}
	}
	if byNo[2].DigTotal <= byNo[1].DigTotal {
		t.Error("No.2 should flip more than No.1")
	}
	if byNo[5].DigTotal >= byNo[1].DigTotal/5 {
		t.Errorf("No.5 (%d flips) should be far below No.1 (%d)", byNo[5].DigTotal, byNo[1].DigTotal)
	}
}

// TestTable1Shape asserts the qualitative comparison matrix: only
// DRAMDig scores all three properties.
func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four tools repeatedly")
	}
	rows, err := Table1(Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]Table1Row{}
	for _, r := range rows {
		got[r.Tool] = r
	}
	dig := got["DRAMDig"]
	if !dig.Generic || !dig.Efficient || !dig.Deterministic {
		t.Errorf("DRAMDig row = %+v; paper says yes/yes/yes", dig)
	}
	drama := got["DRAMA"]
	if drama.Deterministic {
		t.Error("DRAMA scored deterministic; the paper's point is that it is not")
	}
	if !drama.Generic {
		t.Error("DRAMA is generic by design")
	}
	if drama.Efficient {
		t.Error("DRAMA scored efficient; the paper reports hours")
	}
	xr := got["Xiao et al."]
	if xr.Generic {
		t.Error("Xiao scored generic; it must not be")
	}
	if !xr.Efficient {
		t.Error("Xiao is efficient where it works")
	}
	sb := got["Seaborn et al."]
	if sb.Generic || sb.Efficient {
		t.Errorf("Seaborn row = %+v; paper says no/no", sb)
	}
	var buf bytes.Buffer
	RenderTable1(&buf, rows)
	if !strings.Contains(buf.String(), "DRAMDig") {
		t.Error("rendered Table I missing DRAMDig")
	}
}

func TestRenderHelpers(t *testing.T) {
	var buf bytes.Buffer
	RenderTable(&buf, "T", []string{"a", "b"}, [][]string{{"1", "2"}, {"333", "4"}})
	out := buf.String()
	if !strings.Contains(out, "| 333 | 4") {
		t.Errorf("table misaligned:\n%s", out)
	}
	buf.Reset()
	RenderCSV(&buf, []string{"x", "y"}, [][]string{{"a,b", "c"}})
	if !strings.Contains(buf.String(), "a;b,c") {
		t.Errorf("CSV comma escaping wrong: %s", buf.String())
	}
	if Bar(5, 10, 10) != "#####" {
		t.Errorf("Bar = %q", Bar(5, 10, 10))
	}
	if Bar(20, 10, 10) != "##########" {
		t.Error("Bar must clamp")
	}
	if Bar(1, 0, 10) != "" {
		t.Error("Bar with zero max must be empty")
	}
}

// TestTable2Deterministic: the experiment is reproducible — same seed,
// same rows.
func TestTable2Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full Table II runs")
	}
	a, err := Table2(Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Table2(Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("row %d differs between identical runs", i)
		}
	}
}

// TestMarkdownReport exercises the markdown writer with small synthetic
// rows.
func TestMarkdownReport(t *testing.T) {
	var buf bytes.Buffer
	t2 := []Table2Row{{No: 1, Microarch: "Sandy Bridge", CPU: "i5-2400", DRAM: "DDR3, 8GiB",
		Config: "2, 1, 1, 8", BankFuncs: "(6), (14, 17)", RowBits: "17~32", ColBits: "0~5", Match: true}}
	f2 := []Fig2Row{{No: 3, DRAMDigSec: 9, DRAMDigPaperSec: 42, DRAMASec: 7200, DRAMATimeout: true, SelectedAddrs: 4096}}
	t3 := []Table3Row{{No: 2, Dig: [5]int{1, 2, 3, 4, 5}, Drama: [5]int{0, 1, 1, 2, 2}, DigTotal: 15, DramaTotal: 6}}
	t1 := []Table1Row{{Tool: "DRAMDig", Generic: true, Efficient: true, Deterministic: true,
		GenericNote: "9/9", EfficientNote: "minutes", DeterminNote: "stable"}}
	WriteMarkdownReport(&buf, 42, t2, f2, t3, t1)
	out := buf.String()
	for _, want := range []string{
		"# DRAMDig reproduction",
		"| No.1 | Sandy Bridge i5-2400",
		"| No.3 | 9 | 42 | 7200 | yes (2 h cap) | 4096 |",
		"| No.2 | 1/0 |",
		"| DRAMDig | yes — 9/9",
		"|---|",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}
