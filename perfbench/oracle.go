package main

import (
	"encoding/json"
	"fmt"

	"dramdig/internal/campaign"
	"dramdig/internal/machine"
	"dramdig/internal/mapping"
)

// oracle knows the ground-truth mapping of every machine a workload asks
// for. It derives it itself from the workload seed, the same way the
// daemon derives a paper setting's machine: campaign.PaperSpec(no, S),
// then the simulator's truth for that definition and seed.
type oracle struct {
	truth map[string]string // machine fingerprint → truth mapping fingerprint
	name  map[string]string // machine fingerprint → "No.N"
}

func newOracle(nos []int, seed int64) (*oracle, error) {
	o := &oracle{truth: map[string]string{}, name: map[string]string{}}
	for _, no := range nos {
		spec, err := campaign.PaperSpec(no, seed)
		if err != nil {
			return nil, err
		}
		m, err := machine.New(spec.Def, spec.Seed)
		if err != nil {
			return nil, fmt.Errorf("oracle: machine No.%d: %w", no, err)
		}
		fp := spec.MachineFingerprint()
		o.truth[fp] = m.Truth().Canonicalize().Fingerprint()
		o.name[fp] = spec.Name
	}
	return o, nil
}

// record is the body of GET /v1/mappings/{fp}.
type record struct {
	Fingerprint        string           `json:"fingerprint"`
	Machine            string           `json:"machine"`
	Mapping            *mapping.Mapping `json:"mapping"`
	MappingFingerprint string           `json:"mapping_fingerprint"`
	SimSeconds         float64          `json:"sim_seconds"`
	Measurements       uint64           `json:"measurements"`
}

// checkRecord decodes a served mapping for machine fp and verifies it
// against ground truth: the record must be for that machine, its
// advertised mapping fingerprint must be the truth's, and the mapping it
// carries must hash to the same value (so a doctored mapping under a
// correct label is caught).
func (o *oracle) checkRecord(fp string, body []byte) (record, error) {
	var rec record
	if err := json.Unmarshal(body, &rec); err != nil {
		return rec, fmt.Errorf("mapping %s: undecodable record: %v", fp, err)
	}
	want, ok := o.truth[fp]
	if !ok {
		return rec, fmt.Errorf("mapping %s: not a machine this workload requested", fp)
	}
	if rec.Fingerprint != fp {
		return rec, fmt.Errorf("mapping %s: record is for machine %s", fp, rec.Fingerprint)
	}
	if rec.MappingFingerprint != want {
		return rec, fmt.Errorf("mapping %s (%s): fingerprint %s, ground truth %s", fp, o.name[fp], rec.MappingFingerprint, want)
	}
	if rec.Mapping == nil {
		return rec, fmt.Errorf("mapping %s (%s): record carries no mapping", fp, o.name[fp])
	}
	if got := rec.Mapping.Canonicalize().Fingerprint(); got != want {
		return rec, fmt.Errorf("mapping %s (%s): carried mapping hashes to %s, ground truth %s", fp, o.name[fp], got, want)
	}
	return rec, nil
}

// checkMapping verifies an in-process result for machine fp.
func (o *oracle) checkMapping(fp string, m *mapping.Mapping) error {
	want, ok := o.truth[fp]
	if !ok {
		return fmt.Errorf("machine %s: not a machine this workload requested", fp)
	}
	if m == nil {
		return fmt.Errorf("machine %s (%s): no mapping", fp, o.name[fp])
	}
	if got := m.Canonicalize().Fingerprint(); got != want {
		return fmt.Errorf("machine %s (%s): mapping %s, ground truth %s", fp, o.name[fp], got, want)
	}
	return nil
}
