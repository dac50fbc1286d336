// Markdown export: writes the regenerated artefacts as a self-contained
// report, so a fresh run can be archived.

package eval

import (
	"fmt"
	"io"
	"strings"
)

// WriteMarkdownReport renders all four artefacts as a markdown document.
// Any nil slice is skipped (artefacts can be regenerated selectively).
func WriteMarkdownReport(w io.Writer, seed int64, t2 []Table2Row, f2 []Fig2Row, t3 []Table3Row, t1 []Table1Row) {
	fmt.Fprintf(w, "# DRAMDig reproduction — regenerated artefacts (seed %d)\n\n", seed)
	fmt.Fprintf(w, "All quantities are measured on simulated machines, not on hardware.\n\n")

	if len(t2) > 0 {
		fmt.Fprintf(w, "## Table II — recovered DRAM address mappings\n\n")
		writeMarkdownTable(w,
			[]string{"No.", "Machine", "DRAM", "Config", "Bank functions", "Rows", "Cols", "Matches truth"},
			func(emit func(...string)) {
				for _, r := range t2 {
					emit(fmt.Sprintf("No.%d", r.No),
						fmt.Sprintf("%s %s", r.Microarch, r.CPU),
						r.DRAM, r.Config, r.BankFuncs, r.RowBits, r.ColBits,
						matchMark(r.Match))
				}
			})
		fmt.Fprintln(w)
	}
	if len(f2) > 0 {
		fmt.Fprintf(w, "## Figure 2 — time costs (simulated seconds)\n\n")
		writeMarkdownTable(w,
			[]string{"Setting", "DRAMDig (s)", "DRAMDig, paper stop (s)", "DRAMA (s)", "DRAMA killed", "Selected addresses"},
			func(emit func(...string)) {
				for _, r := range f2 {
					killed := ""
					if r.DRAMATimeout {
						killed = "yes (2 h cap)"
					}
					emit(fmt.Sprintf("No.%d", r.No),
						fmt.Sprintf("%.0f", r.DRAMDigSec),
						fmt.Sprintf("%.0f", r.DRAMDigPaperSec),
						fmt.Sprintf("%.0f", r.DRAMASec),
						killed,
						fmt.Sprintf("%d", r.SelectedAddrs))
				}
			})
		fmt.Fprintln(w)
	}
	if len(t3) > 0 {
		fmt.Fprintf(w, "## Table III — rowhammer bit flips (DRAMDig/DRAMA, 5-minute tests)\n\n")
		writeMarkdownTable(w,
			[]string{"Machine", "T1", "T2", "T3", "T4", "T5", "Total"},
			func(emit func(...string)) {
				for _, r := range t3 {
					cells := []string{fmt.Sprintf("No.%d", r.No)}
					for t := 0; t < 5; t++ {
						cells = append(cells, fmt.Sprintf("%d/%d", r.Dig[t], r.Drama[t]))
					}
					cells = append(cells, fmt.Sprintf("%d/%d", r.DigTotal, r.DramaTotal))
					emit(cells...)
				}
			})
		fmt.Fprintln(w)
	}
	if len(t1) > 0 {
		fmt.Fprintf(w, "## Table I — tool comparison\n\n")
		writeMarkdownTable(w,
			[]string{"Tool", "Generic", "Efficient", "Deterministic"},
			func(emit func(...string)) {
				for _, r := range t1 {
					emit(r.Tool,
						fmt.Sprintf("%s — %s", yesNo(r.Generic), r.GenericNote),
						fmt.Sprintf("%s — %s", yesNo(r.Efficient), r.EfficientNote),
						fmt.Sprintf("%s — %s", yesNo(r.Deterministic), r.DeterminNote))
				}
			})
		fmt.Fprintln(w)
	}
}

// writeMarkdownTable renders one pipe table.
func writeMarkdownTable(w io.Writer, headers []string, fill func(emit func(...string))) {
	esc := func(s string) string { return strings.ReplaceAll(s, "|", "\\|") }
	cols := make([]string, len(headers))
	for i, h := range headers {
		cols[i] = esc(h)
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(cols, " | "))
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(w, "|%s|\n", strings.Join(sep, "|"))
	fill(func(cells ...string) {
		row := make([]string, len(cells))
		for i, c := range cells {
			row[i] = esc(c)
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	})
}
