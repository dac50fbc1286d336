package campaign

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"dramdig/internal/machine"
)

// goldenPath pins the pipeline's observable behaviour on a fixed corpus.
// Performance work on the engine, the simulator or the allocator must
// leave it byte-identical: the same measurements, the same simulated
// cost and the same recovered mappings, only sooner. The simulated
// seconds are exact float64 sums, recorded on amd64; an architecture that
// fuses multiply-adds may round them differently.
const goldenPath = "testdata/behaviour.golden.json"

// goldenRecord is one job of the corpus. SimSeconds goes through
// encoding/json, whose float64 form round-trips exactly.
type goldenRecord struct {
	Campaign     int64             `json:"campaign_seed"`
	Job          int               `json:"job"`
	Name         string            `json:"name"`
	Attempts     int               `json:"attempts"`
	Err          string            `json:"err,omitempty"`
	Fingerprint  string            `json:"fingerprint,omitempty"`
	Match        bool              `json:"match"`
	Measurements uint64            `json:"measurements"`
	SimSeconds   float64           `json:"sim_s"`
	Steps        map[string]uint64 `json:"step_measurements,omitempty"`
	PoolSHA256   string            `json:"pool_pages_sha256"`
}

// goldenCampaigns are the corpus: what dramdigd runs for
// {"machines":[-1],"generated":8,"seed":7} and {"machines":[-1],"seed":42}.
// Jobs take the daemon's per-job tool seeds (S + i·7919), and each paper
// setting runs under two of them.
func goldenCampaigns(t *testing.T) map[int64][]Spec {
	gen, err := GeneratedSpecs(8, 7)
	if err != nil {
		t.Fatal(err)
	}
	return map[int64][]Spec{
		7:  append(PaperSpecs(7), gen...),
		42: PaperSpecs(42),
	}
}

func TestBehaviourGolden(t *testing.T) {
	var got []goldenRecord
	for _, seed := range []int64{7, 42} {
		specs := goldenCampaigns(t)[seed]
		rep, err := Run(context.Background(), specs, Config{Workers: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for i, jr := range rep.Jobs {
			rec := goldenRecord{Campaign: seed, Job: i, Name: jr.Name, Attempts: jr.Attempts, Match: jr.Match}
			if jr.Err != nil {
				rec.Err = jr.Err.Error()
			} else {
				res := jr.Result
				rec.Fingerprint = res.Mapping.Fingerprint()
				rec.Measurements = res.Measurements
				rec.SimSeconds = res.TotalSimSeconds
				rec.Steps = map[string]uint64{}
				for name, st := range res.Steps {
					rec.Steps[name] = st.Measurements
				}
			}
			// The pool of the last attempt, derived as Spec.source does.
			_, pool, err := machine.Surface(jr.Spec.Def, jr.Spec.Seed+int64(jr.Attempts-1)*31)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 0, 8*pool.NumPages())
			for pg := range pool.All() {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(pg))
			}
			sum := sha256.Sum256(buf)
			rec.PoolSHA256 = hex.EncodeToString(sum[:])
			got = append(got, rec)
		}
	}

	// The paper's determinism property: the recovered mapping does not
	// depend on the tool seed, so both campaigns agree per setting.
	bySetting := map[string]string{}
	for _, rec := range got {
		if rec.Job >= 9 {
			continue // generated machines differ per campaign
		}
		if !rec.Match {
			t.Errorf("campaign %d %s: recovered mapping does not match ground truth (%s)", rec.Campaign, rec.Name, rec.Err)
		}
		if fp, ok := bySetting[rec.Name]; ok && fp != rec.Fingerprint {
			t.Errorf("%s: fingerprint %s under one tool seed, %s under another", rec.Name, fp, rec.Fingerprint)
		}
		bySetting[rec.Name] = rec.Fingerprint
	}

	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	want, err := os.ReadFile(goldenPath)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		// Leave the new output where a deliberate behaviour change can
		// be reviewed and copied over the golden file.
		f, err := os.CreateTemp("", "behaviour.golden.*.json")
		if err != nil {
			t.Fatal(err)
		}
		_, werr := f.Write(data)
		if cerr := f.Close(); werr != nil || cerr != nil {
			t.Fatalf("writing %s: %v %v", f.Name(), werr, cerr)
		}
		t.Logf("new output written to %s", f.Name())
		var old []goldenRecord
		if len(want) > 0 {
			if err := json.Unmarshal(want, &old); err != nil {
				t.Fatalf("%s: %v", goldenPath, err)
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
		t.Fatalf("behaviour differs from %s", goldenPath)
	}
}
