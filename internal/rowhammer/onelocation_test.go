package rowhammer

import (
	"slices"
	"testing"

	"dramdig/internal/machine"
	"dramdig/internal/memctrl"
)

// closedPageNo2 clones setting No.2 with a closed-page controller.
func closedPageNo2(t testing.TB) *machine.Machine {
	t.Helper()
	def, err := machine.ByNo(2)
	if err != nil {
		t.Fatal(err)
	}
	def.Name = "No.2-closed"
	prev := def.ParamsTweak
	def.ParamsTweak = func(p *memctrl.Params) {
		if prev != nil {
			prev(p)
		}
		p.Policy = memctrl.ClosedPage
	}
	m, err := machine.New(def, 61)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestOneLocationNeedsClosedPage: one-location hammering flips cells on
// a closed-page machine and nothing on the standard open-page one.
func TestOneLocationNeedsClosedPage(t *testing.T) {
	closed := closedPageNo2(t)
	s, err := NewSession(closed, ToolMapping{}, Config{
		Mode: OneLocation, Seed: 5, BudgetSimSeconds: 120,
	})
	if err != nil {
		t.Fatal(err)
	}
	resClosed := s.Run()
	if resClosed.Flips == 0 {
		t.Error("one-location induced no flips on the closed-page machine")
	}

	open, _ := machine.NewByNo(2, 61)
	s2, err := NewSession(open, ToolMapping{}, Config{
		Mode: OneLocation, Seed: 5, BudgetSimSeconds: 120,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res := s2.Run(); res.Flips != 0 {
		t.Errorf("one-location flipped %d cells on an open-page machine", res.Flips)
	}
}

// TestOneLocationWeakerThanDoubleSided: even where it works, one-location
// (single-sided dose) is far less productive than mapping-guided
// double-sided hammering, matching the literature.
func TestOneLocationWeakerThanDoubleSided(t *testing.T) {
	closed := closedPageNo2(t)
	one, _ := NewSession(closed, ToolMapping{}, Config{Mode: OneLocation, Seed: 2, BudgetSimSeconds: 120})
	oneRes := one.Run()

	closed2 := closedPageNo2(t)
	ds, _ := NewSession(closed2, FromMapping(closed2.Truth()), Config{Seed: 2, BudgetSimSeconds: 120})
	dsRes := ds.Run()

	if oneRes.Flips >= dsRes.Flips {
		t.Errorf("one-location (%d flips) should underperform double-sided (%d flips)",
			oneRes.Flips, dsRes.Flips)
	}
}

// TestTimingChannelGoneOnClosedPage: DRAMDig's substrate assumption is
// explicit — a closed-page controller exposes no row-buffer side channel.
func TestTimingChannelGoneOnClosedPage(t *testing.T) {
	m := closedPageNo2(t)
	base := slices.Collect(m.Pool().All())[0]
	sbdr, err := m.Truth().RowNeighbor(base, 3)
	if err != nil {
		t.Fatal(err)
	}
	var hi, lo float64
	for i := 0; i < 30; i++ {
		hi += m.MeasurePair(base, sbdr, 1200)
		lo += m.MeasurePair(base, base+128, 1200)
	}
	if diff := (hi - lo) / 30; diff > 3 || diff < -3 {
		t.Errorf("closed-page machine leaks a %.1f ns channel", diff)
	}
}
