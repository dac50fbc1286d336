// Campaign aggregation: per-job results roll up into success rates,
// timing statistics and mapping equivalence classes, with an eval-style
// ASCII rendering for terminals and logs.

package campaign

import (
	"fmt"
	"io"
	"sort"

	"dramdig/internal/core"
	"dramdig/internal/eval"
	"dramdig/internal/mapping"
)

// JobResult is one spec's outcome.
type JobResult struct {
	// Spec is the job as submitted; Name is its resolved display name.
	Spec Spec
	Name string
	// Result is the pipeline output (nil on failure).
	Result *core.Result
	// Err is the final failure, nil on success.
	Err error
	// Attempts counts pipeline attempts (0 for a cache hit).
	Attempts int
	// Match reports ground-truth equivalence; Cached marks wrapper
	// cache hits.
	Match  bool
	Cached bool
	// Fingerprint is the recovered mapping's content hash (success only);
	// MachineFingerprint is the definition's hash (always set), the key
	// result caches use.
	Fingerprint        string
	MachineFingerprint string
	// WallSeconds is host time spent on the job, queue to finish.
	WallSeconds float64
}

// Stats summarizes a sample of simulated-seconds values.
type Stats struct {
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	Total float64 `json:"total"`
}

func statsOf(vals []float64) Stats {
	if len(vals) == 0 {
		return Stats{}
	}
	s := Stats{Min: vals[0], Max: vals[0]}
	for _, v := range vals {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		s.Total += v
	}
	s.Mean = s.Total / float64(len(vals))
	return s
}

// Class is one mapping equivalence class: the jobs whose recovered
// mappings describe the same physical→DRAM partition.
type Class struct {
	// Fingerprint is the shared canonical mapping hash.
	Fingerprint string
	// Mapping is the canonical representative.
	Mapping *mapping.Mapping
	// Jobs lists member job names, in spec order.
	Jobs []string
}

// Report aggregates a campaign.
type Report struct {
	// Jobs holds one entry per spec, in spec order.
	Jobs []JobResult
	// Counters over the jobs.
	Total, Succeeded, Failed, Matched, Cached int
	// SuccessRate is Succeeded/Total.
	SuccessRate float64
	// Sim summarizes successful jobs' simulated run times (the paper's
	// Figure 2 quantity).
	Sim Stats
	// WallSeconds is the whole campaign's host time; with more workers
	// than one it undercuts the sum of per-job wall times.
	WallSeconds float64
	// Classes groups successful jobs by mapping equivalence, largest
	// class first.
	Classes []Class
}

func buildReport(specs []Spec, results []JobResult, wallSeconds float64) *Report {
	r := &Report{Jobs: results, Total: len(specs), WallSeconds: wallSeconds}
	var sims []float64
	classIdx := map[string]int{}
	for _, jr := range results {
		if jr.Err != nil {
			r.Failed++
			continue
		}
		r.Succeeded++
		if jr.Match {
			r.Matched++
		}
		if jr.Cached {
			r.Cached++
		}
		if jr.Result != nil {
			sims = append(sims, jr.Result.TotalSimSeconds)
		}
		if jr.Fingerprint != "" {
			i, ok := classIdx[jr.Fingerprint]
			if !ok {
				i = len(r.Classes)
				classIdx[jr.Fingerprint] = i
				r.Classes = append(r.Classes, Class{
					Fingerprint: jr.Fingerprint,
					Mapping:     jr.Result.Mapping.Canonicalize(),
				})
			}
			r.Classes[i].Jobs = append(r.Classes[i].Jobs, jr.Name)
		}
	}
	r.SuccessRate = float64(r.Succeeded) / float64(r.Total)
	r.Sim = statsOf(sims)
	sort.SliceStable(r.Classes, func(i, j int) bool {
		return len(r.Classes[i].Jobs) > len(r.Classes[j].Jobs)
	})
	return r
}

// RenderTable writes the report as an eval-style ASCII table plus the
// aggregate lines.
func (r *Report) RenderTable(w io.Writer) {
	rows := make([][]string, 0, len(r.Jobs))
	for _, jr := range r.Jobs {
		status, mapped, sim := "ok", "", ""
		switch {
		case jr.Err != nil:
			status = "FAILED: " + jr.Err.Error()
		case jr.Cached:
			status = "ok (cached)"
		}
		if jr.Result != nil && jr.Result.Mapping != nil {
			mapped = jr.Result.Mapping.String()
			sim = fmt.Sprintf("%.1f", jr.Result.TotalSimSeconds)
		}
		rows = append(rows, []string{
			jr.Name, status, fmt.Sprintf("%v", jr.Match),
			fmt.Sprintf("%d", jr.Attempts), sim, mapped,
		})
	}
	eval.RenderTable(w, "Campaign report",
		[]string{"machine", "status", "match", "attempts", "sim s", "recovered mapping"}, rows)
	fmt.Fprintf(w, "jobs: %d ok / %d failed of %d (%.0f%% success, %d matched truth, %d cached)\n",
		r.Succeeded, r.Failed, r.Total, 100*r.SuccessRate, r.Matched, r.Cached)
	fmt.Fprintf(w, "simulated seconds: min %.1f / mean %.1f / max %.1f / total %.1f; campaign wall %.1f s\n",
		r.Sim.Min, r.Sim.Mean, r.Sim.Max, r.Sim.Total, r.WallSeconds)
	for i, c := range r.Classes {
		fmt.Fprintf(w, "equivalence class %d (%s…): %v\n", i+1, c.Fingerprint[:12], c.Jobs)
	}
}
