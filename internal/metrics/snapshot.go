// Snapshot/merge support: a Registry can export its current state as a
// JSON-encodable Snapshot, and a Federation re-renders snapshots from
// many instances (cluster workers) as one exposition page with an
// `instance` label injected on every sample. This is how worker
// telemetry reaches the coordinator: a worker ships its whole snapshot
// on a heartbeat at most once a second and on every completion, the
// coordinator's Federation decodes and validates each one as it arrives
// and keeps the latest per worker, and GET /v1/cluster/metrics renders
// the fleet as if one registry had collected it all.
//
// Snapshots are values, not live views: histogram bucket counts are
// copied non-cumulative (the wire shape stays small and mergeable) and
// rendered cumulatively by the same writer as a registry's own page. A
// worker label named "instance" is preserved as "exported_instance" — the
// Prometheus federation convention — so the injected label can never
// collide.

package metrics

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// Snapshot is a registry's exported state: every family with its
// children's current values. The JSON shape is the cluster heartbeat
// payload; keep it backward-decodable (add fields, never repurpose).
type Snapshot struct {
	Families []FamilySnapshot `json:"families,omitempty"`
}

// FamilySnapshot is one metric family in a snapshot.
type FamilySnapshot struct {
	Name string `json:"name"`
	Help string `json:"help,omitempty"`
	Kind string `json:"kind"` // "counter", "gauge" or "histogram"
	// Buckets are the histogram upper bounds (+Inf implicit); empty for
	// counters and gauges.
	Buckets  []float64       `json:"buckets,omitempty"`
	Children []ChildSnapshot `json:"children,omitempty"`
}

// ChildSnapshot is one labeled instance's values.
type ChildSnapshot struct {
	Labels Labels `json:"labels,omitempty"`
	// Value carries a counter's or gauge's reading (including func
	// children, evaluated at snapshot time).
	Value float64 `json:"value,omitempty"`
	// BucketCounts are per-bucket (non-cumulative) histogram counts,
	// len(Buckets)+1 with the +Inf bucket last.
	BucketCounts []uint64 `json:"bucket_counts,omitempty"`
	Sum          float64  `json:"sum,omitempty"`
	Count        uint64   `json:"count,omitempty"`
}

// Total sums the values of a counter or gauge family's children (and,
// for histograms, their observation counts). The second return is false
// when the snapshot has no family by that name.
func (s *Snapshot) Total(name string) (float64, bool) {
	if s == nil {
		return 0, false
	}
	for i := range s.Families {
		f := &s.Families[i]
		if f.Name != name {
			continue
		}
		var total float64
		for _, c := range f.Children {
			if f.Kind == string(kindHistogram) {
				total += float64(c.Count)
			} else {
				total += c.Value
			}
		}
		return total, true
	}
	return 0, false
}

// Snapshot exports the registry's current state; it is the only place
// that reads a registry out. It copies the family structure under the
// lock — register appends to a family's children under it — and reads
// the child values (including GaugeFunc/CounterFunc callbacks) after
// releasing it, so callbacks that take other components' locks cannot
// deadlock against registration. That is safe because a child is fully
// built before it is published, never changes afterwards, and holds its
// values in atomics. Families are sorted by name and children by label
// signature, making the snapshot deterministic for a given state. A
// non-finite callback reading or histogram sum reads as 0, since JSON
// has no NaN or Inf. A nil registry returns an empty snapshot.
func (r *Registry) Snapshot() *Snapshot {
	snap := &Snapshot{}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	snap.Families = make([]FamilySnapshot, len(names))
	children := make([][]*child, len(names))
	for i, name := range names {
		f := r.families[name]
		snap.Families[i] = FamilySnapshot{
			Name:    f.name,
			Help:    f.help,
			Kind:    string(f.kind),
			Buckets: slices.Clone(f.buckets),
		}
		children[i] = slices.Clone(f.children)
	}
	r.mu.Unlock()

	for i, kids := range children {
		sort.Slice(kids, func(a, b int) bool { return kids[a].sig < kids[b].sig })
		fs := &snap.Families[i]
		for _, c := range kids {
			cs := ChildSnapshot{Labels: cloneLabels(c.labels)}
			switch {
			case c.fn != nil:
				cs.Value = finite(c.fn())
			case c.counter != nil:
				cs.Value = float64(c.counter.Value())
			case c.gauge != nil:
				cs.Value = float64(c.gauge.Value())
			case c.hist != nil:
				cs.BucketCounts = make([]uint64, len(c.hist.counts))
				for k := range c.hist.counts {
					cs.BucketCounts[k] = c.hist.counts[k].Load()
				}
				cs.Sum = finite(c.hist.Sum())
				cs.Count = c.hist.Count()
			}
			fs.Children = append(fs.Children, cs)
		}
	}
	return snap
}

// finite returns v, or 0 for NaN and ±Inf.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// Federation holds the latest snapshot per instance and renders them
// as one exposition page. Instances age out explicitly (Remove) — the
// coordinator ties their lifetime to its worker registry, so a reaped
// worker's metrics vanish with its ring membership.
type Federation struct {
	mu        sync.Mutex
	instances map[string]fedEntry
}

type fedEntry struct {
	snap *Snapshot
	at   time.Time
}

// NewFederation returns an empty federation.
func NewFederation() *Federation {
	return &Federation{instances: make(map[string]fedEntry)}
}

// Update decodes raw as instance's latest snapshot, received at at. A
// payload that does not decode, or that names a family, kind or label
// the exposition format cannot carry, is refused with an error and the
// instance keeps its previous snapshot: foreign bytes never reach the
// rendered page unchecked.
func (f *Federation) Update(instance string, raw []byte, at time.Time) error {
	if f == nil {
		return nil
	}
	if instance == "" {
		return errors.New("metrics: snapshot without an instance")
	}
	snap := new(Snapshot)
	if err := json.Unmarshal(raw, snap); err != nil {
		return fmt.Errorf("metrics: decode snapshot: %w", err)
	}
	if err := snap.validate(); err != nil {
		return err
	}
	f.mu.Lock()
	f.instances[instance] = fedEntry{snap: snap, at: at}
	f.mu.Unlock()
	return nil
}

// validate applies the registry's registration checks to a foreign
// snapshot: family names and label names must fit their grammars,
// every kind must be one the registry renders, and histogram bounds
// must ascend strictly (JSON carries no NaN or Inf, so they are
// finite).
func (s *Snapshot) validate() error {
	for _, fam := range s.Families {
		if !validName(fam.Name, true) {
			return fmt.Errorf("metrics: invalid family name %q", fam.Name)
		}
		if !metricKind(fam.Kind).valid() {
			return fmt.Errorf("metrics: family %s: unknown kind %q", fam.Name, fam.Kind)
		}
		for i := 1; i < len(fam.Buckets); i++ {
			if fam.Buckets[i] <= fam.Buckets[i-1] {
				return fmt.Errorf("metrics: histogram %s buckets not ascending", fam.Name)
			}
		}
		for _, c := range fam.Children {
			for k := range c.Labels {
				if !validName(k, false) {
					return fmt.Errorf("metrics: family %s: invalid label name %q", fam.Name, k)
				}
			}
		}
	}
	return nil
}

// Remove drops one instance's snapshot; the return reports whether it
// was present.
func (f *Federation) Remove(instance string) bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.instances[instance]
	delete(f.instances, instance)
	return ok
}

// Info returns one instance's latest snapshot and its timestamp.
func (f *Federation) Info(instance string) (*Snapshot, time.Time, bool) {
	if f == nil {
		return nil, time.Time{}, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.instances[instance]
	return e.snap, e.at, ok
}

// WritePrometheus renders every instance's snapshot as one exposition
// page through the registry's writer: families merged by name and
// sorted, children sorted by instance and then by their own labels, an
// `instance` label injected into every child. A family whose kind (or
// histogram buckets) conflicts across instances renders the first
// contributor's shape — in sorted instance order, so the output is
// deterministic — and skips the conflicting children. An existing
// `instance` label on a child is preserved as `exported_instance`.
func (f *Federation) WritePrometheus(w io.Writer) error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	names := make([]string, 0, len(f.instances))
	for name := range f.instances {
		names = append(names, name)
	}
	sort.Strings(names)
	snaps := make([]*Snapshot, len(names))
	for i, name := range names {
		snaps[i] = f.instances[name].snap
	}
	f.mu.Unlock()

	var fams []FamilySnapshot
	index := make(map[string]int)
	for i, name := range names {
		for _, fam := range snaps[i].Families {
			k, ok := index[fam.Name]
			if !ok {
				k = len(fams)
				index[fam.Name] = k
				fams = append(fams, FamilySnapshot{Name: fam.Name, Help: fam.Help, Kind: fam.Kind, Buckets: fam.Buckets})
			}
			mf := &fams[k]
			if mf.Help == "" {
				mf.Help = fam.Help
			}
			if fam.Kind != mf.Kind || (mf.Kind == string(kindHistogram) && !equalFloats(fam.Buckets, mf.Buckets)) {
				continue // kind or bucket conflict: first contributor wins
			}
			children := slices.Clone(fam.Children)
			slices.SortStableFunc(children, func(a, b ChildSnapshot) int {
				return strings.Compare(labelSignature(a.Labels), labelSignature(b.Labels))
			})
			for _, c := range children {
				c.Labels = instanceLabels(c.Labels, name)
				mf.Children = append(mf.Children, c)
			}
		}
	}
	sort.Slice(fams, func(a, b int) bool { return fams[a].Name < fams[b].Name })
	return writeFamilies(w, fams)
}

// instanceLabels returns a child's labels with the federation's
// instance label injected. A pre-existing "instance" label moves to
// "exported_instance" so the injected one is authoritative; when that
// name is taken too, "exported_" is prepended until it is free, as
// Prometheus does, so no label is lost and every render is the same.
func instanceLabels(l Labels, instance string) Labels {
	out := make(Labels, len(l)+1)
	for k, v := range l {
		if k != "instance" {
			out[k] = v
		}
	}
	if v, ok := l["instance"]; ok {
		k := "exported_instance"
		for _, taken := out[k]; taken; _, taken = out[k] {
			k = "exported_" + k
		}
		out[k] = v
	}
	out["instance"] = instance
	return out
}
