package xiao

import (
	"errors"
	"strings"
	"testing"

	"dramdig/internal/machine"
)

// TestXiaoGenericity reproduces the paper's §IV-A finding: the tool works
// on the disjoint-2-bit-function DDR3 settings and gets stuck everywhere
// else. (The paper lists No.5 as working; structurally its functions
// share bits exactly like No.2's, so our reimplementation predicts the
// stall there too — documented in EXPERIMENTS.md.)
func TestXiaoGenericity(t *testing.T) {
	works := map[int]bool{1: true, 3: true, 4: true}
	for no := 1; no <= 9; no++ {
		m, err := machine.NewByNo(no, 31)
		if err != nil {
			t.Fatal(err)
		}
		tool := New(m, Config{Seed: 3})
		res, err := tool.Run()
		var stuck *ErrStuck
		switch {
		case errors.As(err, &stuck):
			if works[no] {
				t.Errorf("No.%d: expected success, got %v", no, err)
			}
			if len(stuck.Resolved) >= stuck.Want {
				t.Errorf("No.%d: stuck with %d of %d functions?", no, len(stuck.Resolved), stuck.Want)
			}
		case err != nil:
			t.Errorf("No.%d: unexpected error %v", no, err)
		default:
			if !works[no] {
				t.Errorf("No.%d: expected the tool to be stuck, got %s", no, res)
			}
			if res.Mapping == nil || !res.Mapping.EquivalentTo(m.Truth()) {
				t.Errorf("No.%d: recovered wrong mapping %s", no, res)
			}
			if res.TotalSimSeconds > 600 {
				t.Errorf("No.%d: %f s is not 'within minutes'", no, res.TotalSimSeconds)
			}
		}
	}
}

// TestStuckMessageMatchesPaperStyle: the error message mirrors the
// paper's account ("stuck after resolving ... as k of n bank address
// functions").
func TestStuckMessageMatchesPaperStyle(t *testing.T) {
	m, _ := machine.NewByNo(6, 31)
	tool := New(m, Config{Seed: 3})
	_, err := tool.Run()
	var stuck *ErrStuck
	if !errors.As(err, &stuck) {
		t.Fatalf("want ErrStuck on No.6, got %v", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "stuck after resolving") || !strings.Contains(msg, "of 6 bank address functions") {
		t.Errorf("message %q does not match the paper's account", msg)
	}
	// The resolved subset must be genuine functions of the machine.
	for _, f := range stuck.Resolved {
		found := false
		for _, tf := range m.Truth().BankFuncs {
			if f == tf {
				found = true
			}
		}
		if !found {
			t.Errorf("resolved non-function %#x", f)
		}
	}
}

// TestXiaoDeterministic: two runs with different seeds agree where the
// tool works.
func TestXiaoDeterministic(t *testing.T) {
	var outs []string
	for _, seed := range []int64{1, 77} {
		m, _ := machine.NewByNo(3, 13)
		tool := New(m, Config{Seed: seed})
		res, err := tool.Run()
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, res.Mapping.Canonicalize().String())
	}
	if outs[0] != outs[1] {
		t.Errorf("outputs differ: %s vs %s", outs[0], outs[1])
	}
}
