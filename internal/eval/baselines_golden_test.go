package eval

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"dramdig/internal/drama"
	"dramdig/internal/machine"
	"dramdig/internal/rowhammer"
	"dramdig/internal/seaborn"
	"dramdig/internal/xiao"
)

// baselinesGoldenPath pins what the baselines and rowhammer sessions do
// on a fixed corpus: DRAMA, Xiao et al. and Seaborn on the nine paper
// settings, and rowhammer's three modes with the true mapping on the
// Table III settings. A change meant to leave them alone must leave it
// byte-identical. The corpus reaches their failure modes too: DRAMA's
// time cap, Xiao's stuck sweeps and Seaborn's flip-less machine.
const baselinesGoldenPath = "testdata/baselines.golden.json"

// baselineRecord is one run. Measurements and ClockNs are the machine's
// own counters, so a run that fails is pinned as exactly as one that
// succeeds; the float64 fields round-trip exactly through encoding/json.
type baselineRecord struct {
	Tool          string   `json:"tool"`
	No            int      `json:"no"`
	Err           string   `json:"err,omitempty"`
	Result        string   `json:"result,omitempty"`
	Measurements  uint64   `json:"measurements"`
	ClockNs       float64  `json:"clock_ns"`
	SimSeconds    float64  `json:"sim_s,omitempty"`
	Sets          int      `json:"sets,omitempty"`
	Attempts      int      `json:"attempts,omitempty"`
	KernelVectors []uint64 `json:"kernel_vectors,omitempty"`
	Flips         int      `json:"flips,omitempty"`
	Victims       int      `json:"victims,omitempty"`
	Skipped       int      `json:"skipped,omitempty"`
}

// baselineRuns runs the corpus with the seeds the experiments use at
// -seed 42.
func baselineRuns(t *testing.T) []baselineRecord {
	opts := Options{Seed: 42}
	newMachine := func(no int) *machine.Machine {
		m, err := machine.NewByNo(no, opts.machineSeed(no))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	finish := func(rec baselineRecord, m *machine.Machine, res fmt.Stringer, err error) baselineRecord {
		if err != nil {
			rec.Err = err.Error()
		} else {
			rec.Result = res.String()
		}
		rec.Measurements = m.Stats().Measurements
		rec.ClockNs = m.ClockNs()
		return rec
	}
	var recs []baselineRecord
	for no := 1; no <= 9; no++ {
		m := newMachine(no)
		res, err := drama.New(m, drama.Config{Seed: opts.Seed + 100 + int64(no)}).Run()
		rec := baselineRecord{Tool: "drama", No: no}
		if err == nil {
			rec.SimSeconds, rec.Sets, rec.Attempts = res.TotalSimSeconds, res.Sets, res.Attempts
		}
		recs = append(recs, finish(rec, m, res, err))
	}
	for no := 1; no <= 9; no++ {
		m := newMachine(no)
		res, err := xiao.New(m, xiao.Config{Seed: opts.Seed}).Run()
		rec := baselineRecord{Tool: "xiao", No: no}
		if err == nil {
			rec.SimSeconds = res.TotalSimSeconds
		}
		recs = append(recs, finish(rec, m, res, err))
	}
	for no := 1; no <= 9; no++ {
		m := newMachine(no)
		res, err := seaborn.New(m, seaborn.Config{Seed: opts.Seed}).Run()
		rec := baselineRecord{Tool: "seaborn", No: no}
		if err == nil {
			rec.SimSeconds, rec.KernelVectors = res.TotalSimSeconds, res.KernelVectors
		}
		recs = append(recs, finish(rec, m, res, err))
	}
	modes := []struct {
		name string
		mode rowhammer.Mode
	}{{"rowhammer-double", rowhammer.DoubleSided}, {"rowhammer-many", rowhammer.ManySided}, {"rowhammer-one", rowhammer.OneLocation}}
	for _, md := range modes {
		for _, no := range Table3Machines {
			m := newMachine(no)
			sess, err := rowhammer.NewSession(m, rowhammer.FromMapping(m.Truth()), rowhammer.Config{
				Mode:             md.mode,
				BudgetSimSeconds: 120,
				Seed:             opts.Seed*1000 + int64(no),
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := sess.RunContext(context.Background())
			rec := baselineRecord{Tool: md.name, No: no, SimSeconds: res.SimSeconds,
				Flips: res.Flips, Victims: res.Victims, Skipped: res.Skipped}
			recs = append(recs, finish(rec, m, res, err))
		}
	}
	return recs
}

func TestBaselinesGolden(t *testing.T) {
	got := baselineRuns(t)
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	want, err := os.ReadFile(baselinesGoldenPath)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if bytes.Equal(data, want) {
		return
	}
	// Leave the new output where a deliberate behaviour change can be
	// reviewed and copied over the golden file.
	f, err := os.CreateTemp("", "baselines.golden.*.json")
	if err != nil {
		t.Fatal(err)
	}
	_, werr := f.Write(data)
	if cerr := f.Close(); werr != nil || cerr != nil {
		t.Fatalf("writing %s: %v %v", f.Name(), werr, cerr)
	}
	t.Logf("new output written to %s", f.Name())
	var old []baselineRecord
	if len(want) > 0 {
		if err := json.Unmarshal(want, &old); err != nil {
			t.Fatalf("%s: %v", baselinesGoldenPath, err)
		}
	}
	for i := range got {
		if i >= len(old) {
			t.Errorf("extra record %+v", got[i])
			continue
		}
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(old[i])
		if !bytes.Equal(g, w) {
			t.Errorf("record %d differs:\n got %s\nwant %s", i, g, w)
		}
	}
	if len(old) > len(got) {
		t.Errorf("%d records missing", len(old)-len(got))
	}
	t.Fatalf("baselines differ from %s", baselinesGoldenPath)
}
