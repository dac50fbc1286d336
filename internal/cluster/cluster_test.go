package cluster

import (
	"encoding/json"
	"testing"
)

// BuildSpecs must be a pure function of (request, seed): two
// evaluations — coordinator and worker — must agree on count, order,
// names, seeds and fingerprints.
func TestBuildSpecsDeterministic(t *testing.T) {
	req := CampaignRequest{Machines: []int{1, 4}, Generated: 2}
	a, err := BuildSpecs(req, 7)
	if err != nil {
		t.Fatalf("BuildSpecs: %v", err)
	}
	b, err := BuildSpecs(req, 7)
	if err != nil {
		t.Fatalf("BuildSpecs: %v", err)
	}
	if len(a) != 4 || len(a) != len(b) {
		t.Fatalf("spec counts: %d vs %d, want 4", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Seed != b[i].Seed {
			t.Fatalf("spec %d differs: %q/%d vs %q/%d", i, a[i].Name, a[i].Seed, b[i].Name, b[i].Seed)
		}
		if a[i].MachineFingerprint() != b[i].MachineFingerprint() {
			t.Fatalf("spec %d fingerprints differ", i)
		}
	}
}

func TestBuildSpecsRejects(t *testing.T) {
	if _, err := BuildSpecs(CampaignRequest{}, 1); err == nil {
		t.Fatal("empty request accepted")
	}
	if _, err := BuildSpecs(CampaignRequest{Generated: -3}, 1); err == nil {
		t.Fatal("negative generated accepted")
	}
	if _, err := BuildSpecs(CampaignRequest{Generated: MaxCampaignJobs + 1}, 1); err == nil {
		t.Fatal("oversized campaign accepted")
	}
	if _, err := BuildSpecs(CampaignRequest{Custom: []CustomSpec{{Standard: "DDR5"}}}, 1); err == nil {
		t.Fatal("unknown standard accepted")
	}
}

// FuzzBuildSpecs: every campaign a worker runs passes through
// BuildSpecs on a payload it decoded from the queue. For arbitrary
// payload JSON it must not panic, and two calls must return the same
// specs and fingerprints — the determinism cross-process exactly-once
// rests on — as many as CampaignRequest.Jobs counts without building.
func FuzzBuildSpecs(f *testing.F) {
	for _, seed := range []string{
		`{"request":{"machines":[1,4]},"seed":42}`,
		`{"request":{"machines":[-1],"generated":2,"workers":1},"seed":7}`,
		`{"request":{"custom":[{"name":"x","standard":"DDR4","mem_bytes":8589934592,"channels":1,"dimms_per_channel":1,"ranks_per_dimm":1,"banks_per_rank":16,"bank_funcs":"(13, 17), (14, 18)","row_bits":"17~32","col_bits":"0~12"}]},"seed":1}`,
		`{"request":{"generated":-1},"seed":0}`,
		`{"request":{"machines":[0,10,-2]},"seed":-9}`,
		`{}`,
		`{"request":{"generated":9223372036854775807,"custom":[{}]},"seed":0}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Payload
		if json.Unmarshal(data, &p) != nil {
			return
		}
		a, errA := BuildSpecs(p.Request, p.Seed)
		b, errB := BuildSpecs(p.Request, p.Seed)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("errors disagree: %v vs %v", errA, errB)
		}
		if errA != nil {
			if errA.Error() != errB.Error() {
				t.Fatalf("errors disagree: %v vs %v", errA, errB)
			}
			return
		}
		if len(a) != len(b) || len(a) != p.Request.Jobs() {
			t.Fatalf("spec counts %d vs %d, Jobs() counts %d", len(a), len(b), p.Request.Jobs())
		}
		for i := range a {
			if a[i].Name != b[i].Name || a[i].Seed != b[i].Seed ||
				a[i].MachineFingerprint() != b[i].MachineFingerprint() {
				t.Fatalf("spec %d differs: %q/%d/%s vs %q/%d/%s", i,
					a[i].Name, a[i].Seed, a[i].MachineFingerprint(),
					b[i].Name, b[i].Seed, b[i].MachineFingerprint())
			}
		}
	})
}
