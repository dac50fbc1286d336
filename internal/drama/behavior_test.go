package drama

import (
	"errors"
	"testing"

	"dramdig/internal/addr"
	"dramdig/internal/linalg"
	"dramdig/internal/machine"
)

func mappingFuncString(f uint64) string {
	return addr.FormatBits(addr.BitsFromMask(f))
}

// TestRecoversFunctionSpanOnNo1: on the quiet desktop setting DRAMA
// converges and its functions span the true bank-function space.
func TestRecoversFunctionSpanOnNo1(t *testing.T) {
	m, _ := machine.NewByNo(1, 7)
	tool := New(m, Config{Seed: 11})
	res, err := tool.Run()
	if err != nil {
		t.Fatalf("drama on No.1: %v", err)
	}
	if !linalg.SpanEqual(linalg.NewMatrix(res.Funcs...), linalg.NewMatrix(m.Truth().BankFuncs...)) {
		t.Errorf("function span differs from truth: %s", res)
	}
	// Shared row bits are invisible to DRAMA: bits 17-19 must be absent.
	for _, b := range res.RowBits {
		if b == 17 || b == 18 || b == 19 {
			t.Errorf("DRAMA reported shared row bit %d; it has no Step 3", b)
		}
	}
}

// TestNondeterministicOutput: across seeds the literal output differs
// (function order and, on multi-rank machines, the wide-function form) —
// the paper's criticism.
func TestNondeterministicOutput(t *testing.T) {
	outs := map[string]bool{}
	for seed := int64(0); seed < 4; seed++ {
		m, _ := machine.NewByNo(1, 7)
		tool := New(m, Config{Seed: 100 + seed})
		res, err := tool.Run()
		if err != nil {
			continue
		}
		outs[res.String()] = true
	}
	if len(outs) < 2 {
		t.Errorf("DRAMA produced %d distinct outputs over 4 seeds; expected variation", len(outs))
	}
}

// TestTimesOutOnNo3 and No.7 reproduce the paper's §IV-B: DRAMA ran for
// roughly two hours on these settings without producing results.
func TestTimesOutOnNo3(t *testing.T) {
	m, _ := machine.NewByNo(3, 7)
	tool := New(m, Config{Seed: 11})
	if _, err := tool.Run(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("want timeout on No.3, got %v", err)
	}
}

func TestTimesOutOnNo7(t *testing.T) {
	m, _ := machine.NewByNo(7, 7)
	tool := New(m, Config{Seed: 11})
	if _, err := tool.Run(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("want timeout on No.7, got %v", err)
	}
}

// TestSlowerThanDRAMDigBudget: even where DRAMA converges it takes
// hundreds of simulated seconds — the Figure 2 gap.
func TestSlowerThanDRAMDigBudget(t *testing.T) {
	m, _ := machine.NewByNo(8, 7)
	tool := New(m, Config{Seed: 3})
	res, err := tool.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSimSeconds < 100 {
		t.Errorf("DRAMA finished in %.0f s; implausibly fast for a brute-force tool", res.TotalSimSeconds)
	}
}

// TestWideFunctionFormVaries: on the dual-rank No.5 the recovered wide
// function appears in different (span-equivalent) forms across seeds.
func TestWideFunctionFormVaries(t *testing.T) {
	if testing.Short() {
		t.Skip("several full DRAMA runs")
	}
	forms := map[string]bool{}
	for seed := int64(0); seed < 4; seed++ {
		m, _ := machine.NewByNo(5, 7+seed)
		tool := New(m, Config{Seed: 200 + seed})
		res, err := tool.Run()
		if err != nil {
			continue
		}
		for _, f := range res.Funcs {
			if linalg.Popcount(f) > 2 {
				forms[mappingFuncString(f)] = true
			}
		}
	}
	if len(forms) < 2 {
		t.Logf("only %d wide-function forms over 4 seeds; acceptable but unusual", len(forms))
	}
}
