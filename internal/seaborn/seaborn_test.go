package seaborn

import (
	"errors"
	"math/bits"
	"testing"

	"dramdig/internal/machine"
)

// TestBlindAnalysisOnVulnerableDDR3: on the paper's flippable DDR3
// machines the blind method gathers kernel evidence, and every kernel
// vector is genuinely bank-preserving (orthogonal to the true functions).
func TestBlindAnalysisOnVulnerableDDR3(t *testing.T) {
	m, err := machine.NewByNo(1, 17)
	if err != nil {
		t.Fatal(err)
	}
	tool := New(m, Config{Seed: 9})
	res, err := tool.Run()
	if err != nil {
		t.Fatalf("blind analysis failed on the vulnerable No.1: %v", err)
	}
	if res.FlipPairs < 5 {
		t.Errorf("only %d flip pairs; evidence too thin", res.FlipPairs)
	}
	for _, x := range res.KernelVectors {
		for _, f := range m.Truth().BankFuncs {
			if bits.OnesCount64(x&f)%2 != 0 {
				t.Errorf("kernel vector %#x not orthogonal to true function %#x", x, f)
			}
		}
	}
	// Hours, not minutes: the method is slow by design.
	if res.TotalSimSeconds < 600 {
		t.Errorf("%f s is implausibly fast for blind hammering", res.TotalSimSeconds)
	}
}

// TestFailsOnResistantMachine: No.5 barely flips; the blind method must
// give up with ErrNoFlips — its non-generic failure mode.
func TestFailsOnResistantMachine(t *testing.T) {
	m, _ := machine.NewByNo(5, 17)
	tool := New(m, Config{Seed: 9})
	_, err := tool.Run()
	if !errors.Is(err, ErrNoFlips) {
		t.Fatalf("want ErrNoFlips on No.5, got %v", err)
	}
}

// TestCandidateSpaceUnderdetermined: page-granular blind hammering cannot
// see sub-page function bits, so the candidate space is typically not
// exact — the "manual pruning" caveat of the original analysis.
func TestCandidateSpaceUnderdetermined(t *testing.T) {
	m, _ := machine.NewByNo(2, 17)
	tool := New(m, Config{Seed: 9})
	res, err := tool.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Log("exact recovery — possible but unusual; not a failure")
	}
	if len(res.CandidateFuncs) == 0 {
		t.Error("no candidate functions despite flip evidence")
	}
}
