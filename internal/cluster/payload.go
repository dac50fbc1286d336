// The campaign payload and report wire shapes, shared by the
// coordinator and the worker. These moved here from cmd/dramdigd so
// both processes deserialize the queue payload and serialize the
// report identically — the JSON tags are the v1 API contract and must
// not drift.

package cluster

import (
	"fmt"

	"dramdig/internal/campaign"
	"dramdig/internal/machine"
	"dramdig/internal/specs"
	"dramdig/internal/sysinfo"
)

// MaxCampaignJobs bounds one campaign's job count — the same limit on
// the coordinator's POST path and the worker's payload rebuild.
const MaxCampaignJobs = 256

// CustomSpec is a user-supplied machine definition in plain JSON (the
// paper's notation for the mapping fields).
type CustomSpec struct {
	Name         string `json:"name"`
	Microarch    string `json:"microarch"`
	CPU          string `json:"cpu"`
	Mobile       bool   `json:"mobile"`
	Standard     string `json:"standard"` // "DDR3" or "DDR4"
	MemBytes     uint64 `json:"mem_bytes"`
	Channels     int    `json:"channels"`
	DIMMsPerChan int    `json:"dimms_per_channel"`
	RanksPerDIMM int    `json:"ranks_per_dimm"`
	BanksPerRank int    `json:"banks_per_rank"`
	Chip         string `json:"chip"`
	BankFuncs    string `json:"bank_funcs"`
	RowBits      string `json:"row_bits"`
	ColBits      string `json:"col_bits"`
}

func (c CustomSpec) definition() (machine.Definition, error) {
	var std specs.Standard
	switch c.Standard {
	case "DDR3":
		std = specs.DDR3
	case "DDR4":
		std = specs.DDR4
	default:
		return machine.Definition{}, fmt.Errorf("standard %q (want DDR3 or DDR4)", c.Standard)
	}
	name := c.Name
	if name == "" {
		name = "custom"
	}
	return machine.Definition{
		Name:      name,
		Microarch: c.Microarch,
		CPU:       c.CPU,
		Mobile:    c.Mobile,
		Standard:  std,
		MemBytes:  c.MemBytes,
		Config: sysinfo.DIMMConfig{
			Channels: c.Channels, DIMMsPerChan: c.DIMMsPerChan,
			RanksPerDIMM: c.RanksPerDIMM, BanksPerRank: c.BanksPerRank,
		},
		ChipPart:  c.Chip,
		BankFuncs: c.BankFuncs,
		RowBits:   c.RowBits,
		ColBits:   c.ColBits,
	}, nil
}

// CampaignRequest is the POST /campaigns body. At least one machine
// source must be present; sources combine into one campaign.
type CampaignRequest struct {
	// Machines lists paper setting numbers (1-9); -1 expands to all nine.
	Machines []int `json:"machines,omitempty"`
	// Generated adds n randomly generated machines.
	Generated int `json:"generated,omitempty"`
	// Custom adds user-defined machines.
	Custom []CustomSpec `json:"custom,omitempty"`
	// Seed drives machine construction and the tool (default 42).
	Seed int64 `json:"seed,omitempty"`
	// Workers overrides the daemon's worker cap for this campaign.
	Workers int `json:"workers,omitempty"`
	// Priority orders the queue: higher dequeues first (default 0).
	Priority int `json:"priority,omitempty"`
}

// Jobs counts the specs BuildSpecs expands a valid request into,
// without building them: one per paper setting (nine for -1), one per
// generated machine and one per custom definition.
func (r CampaignRequest) Jobs() int {
	n := len(r.Custom) + r.Generated
	for _, no := range r.Machines {
		if no == -1 {
			n += len(machine.Settings())
		} else {
			n++
		}
	}
	return n
}

// Payload is what a campaign job carries through the queue: the
// validated request plus the resolved seed. Specs rebuild from it
// deterministically, which is what makes a recovered job — or the same
// job landing on a different worker — identical to the original.
type Payload struct {
	Request CampaignRequest `json:"request"`
	Seed    int64           `json:"seed"`
}

// BuildSpecs expands a campaign request into its job specs. It is a
// pure function of (request, seed): the coordinator and every worker
// derive the same specs, in the same order, with the same derived
// seeds — the foundation of cross-process exactly-once.
func BuildSpecs(req CampaignRequest, seed int64) ([]campaign.Spec, error) {
	// Bound the job count before anything allocates proportionally to
	// the request; a negative generated count must not be allowed to
	// drive the estimate down, nor a huge one to wrap it negative.
	if req.Generated < 0 {
		return nil, fmt.Errorf("generated count %d is negative", req.Generated)
	}
	if est := max(req.Jobs(), req.Generated); est > MaxCampaignJobs {
		return nil, fmt.Errorf("campaign of %d jobs exceeds the limit of %d", est, MaxCampaignJobs)
	}
	var out []campaign.Spec
	for _, no := range req.Machines {
		if no == -1 {
			out = append(out, campaign.PaperSpecs(seed)...)
			continue
		}
		spec, err := campaign.PaperSpec(no, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, spec)
	}
	if req.Generated > 0 {
		gen, err := campaign.GeneratedSpecs(req.Generated, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, gen...)
	}
	for i, c := range req.Custom {
		def, err := c.definition()
		if err != nil {
			return nil, fmt.Errorf("custom[%d]: %w", i, err)
		}
		out = append(out, campaign.Spec{Name: def.Name, Def: def, Seed: seed + int64(i)*613})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty campaign: give machines, generated or custom")
	}
	// Defense-in-depth re-check: Jobs mirrors the construction of out;
	// if the two ever drift apart, this keeps the bound authoritative.
	if len(out) > MaxCampaignJobs {
		return nil, fmt.Errorf("campaign of %d jobs exceeds the limit of %d", len(out), MaxCampaignJobs)
	}
	return out, nil
}

// JobJSON is one job row in a campaign status response.
type JobJSON struct {
	Name        string  `json:"name"`
	OK          bool    `json:"ok"`
	Match       bool    `json:"match"`
	Cached      bool    `json:"cached"`
	Attempts    int     `json:"attempts"`
	SimSeconds  float64 `json:"sim_s,omitempty"`
	WallSeconds float64 `json:"wall_s"`
	Mapping     string  `json:"mapping,omitempty"`
	// MappingFingerprint content-addresses the recovered mapping;
	// MachineFingerprint is the store key for GET /mappings/{fp}.
	MappingFingerprint string `json:"mapping_fingerprint,omitempty"`
	MachineFingerprint string `json:"machine_fingerprint"`
	Err                string `json:"err,omitempty"`
}

// ClassJSON is one mapping-equivalence class in a campaign report.
type ClassJSON struct {
	Fingerprint string   `json:"fingerprint"`
	Mapping     string   `json:"mapping"`
	Jobs        []string `json:"jobs"`
}

// ReportJSON is the campaign report's API wire shape — served by GET
// /v1/campaigns/{id}, persisted as the queue job's terminal result, and
// shipped by workers in their completion requests.
type ReportJSON struct {
	Total       int            `json:"total"`
	Succeeded   int            `json:"succeeded"`
	Failed      int            `json:"failed"`
	Matched     int            `json:"matched"`
	Cached      int            `json:"cached"`
	SuccessRate float64        `json:"success_rate"`
	WallSeconds float64        `json:"wall_s"`
	SimSeconds  campaign.Stats `json:"sim_s"`
	Jobs        []JobJSON      `json:"jobs"`
	Classes     []ClassJSON    `json:"equivalence_classes"`
}

// EncodeReport renders a campaign report in the API wire shape.
func EncodeReport(rep *campaign.Report) *ReportJSON {
	out := &ReportJSON{
		Total: rep.Total, Succeeded: rep.Succeeded, Failed: rep.Failed,
		Matched: rep.Matched, Cached: rep.Cached,
		SuccessRate: rep.SuccessRate, WallSeconds: rep.WallSeconds, SimSeconds: rep.Sim,
	}
	for _, jr := range rep.Jobs {
		j := JobJSON{
			Name: jr.Name, OK: jr.Err == nil, Match: jr.Match, Cached: jr.Cached,
			Attempts: jr.Attempts, WallSeconds: jr.WallSeconds,
			MappingFingerprint: jr.Fingerprint,
			MachineFingerprint: jr.MachineFingerprint,
		}
		if jr.Err != nil {
			j.Err = jr.Err.Error()
		}
		if jr.Result != nil && jr.Result.Mapping != nil {
			j.Mapping = jr.Result.Mapping.String()
			j.SimSeconds = jr.Result.TotalSimSeconds
		}
		out.Jobs = append(out.Jobs, j)
	}
	for _, c := range rep.Classes {
		out.Classes = append(out.Classes, ClassJSON{
			Fingerprint: c.Fingerprint, Mapping: c.Mapping.String(), Jobs: c.Jobs,
		})
	}
	return out
}
