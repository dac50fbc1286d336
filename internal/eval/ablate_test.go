package eval

import (
	"bytes"
	"strings"
	"testing"
)

// TestAblateDeltaDefaultsWork: the paper's δ=0.2 succeeds; the sweep
// machinery produces sane rows.
func TestAblateDeltaDefaultsWork(t *testing.T) {
	rows := AblateDelta(Options{Seed: 3}, []float64{0.2}, 2)
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Successes != rows[0].Runs {
		t.Errorf("delta=0.2 failed %d/%d runs", rows[0].Runs-rows[0].Successes, rows[0].Runs)
	}
	if rows[0].AvgSimSeconds <= 0 {
		t.Error("no timing recorded")
	}
}

// TestAblateDriftGuardGap: the guard must dominate on No.3, over 24
// contiguous machine seeds that cover the drift window evenly.
func TestAblateDriftGuardGap(t *testing.T) {
	if testing.Short() {
		t.Skip("several full runs")
	}
	rows := AblateDriftGuard(Options{Seed: 3}, 24)
	var on, off AblationRow
	for _, r := range rows {
		if strings.Contains(r.Param, "on") {
			on = r
		} else {
			off = r
		}
	}
	if on.Successes != on.Runs {
		t.Errorf("guard on: %d/%d", on.Successes, on.Runs)
	}
	if off.Successes >= on.Successes {
		t.Errorf("guard off (%d) not worse than on (%d)", off.Successes, on.Successes)
	}
}

func TestRenderAblation(t *testing.T) {
	var buf bytes.Buffer
	RenderAblation(&buf, "T", []AblationRow{{Param: "x=1", Runs: 3, Successes: 2, AvgSimSeconds: 10}})
	if !strings.Contains(buf.String(), "2/3") {
		t.Errorf("render missing success column: %s", buf.String())
	}
}
