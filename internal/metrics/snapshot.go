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
// re-rendered cumulatively, exactly as WritePrometheus would. A worker
// label named "instance" is preserved as "exported_instance" — the
// Prometheus federation convention — so the injected label can never
// collide.

package metrics

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
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

// Snapshot exports the registry's current state. Like WritePrometheus
// it copies the family structure under the lock and reads the child
// values (including GaugeFunc/CounterFunc callbacks) after releasing
// it, so callbacks that take other components' locks cannot deadlock
// against registration. Children are sorted by label signature, making
// the snapshot deterministic for a given state. A non-finite callback
// reading or histogram sum reads as 0, since JSON has no NaN or Inf. A
// nil registry returns an empty snapshot.
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
	fams := make([]famSnapshot, len(names))
	buckets := make([][]float64, len(names))
	for i, name := range names {
		f := r.families[name]
		fams[i] = famSnapshot{
			name:     f.name,
			help:     f.help,
			kind:     f.kind,
			children: append([]*child(nil), f.children...),
		}
		buckets[i] = append([]float64(nil), f.buckets...)
	}
	r.mu.Unlock()

	snap.Families = make([]FamilySnapshot, 0, len(fams))
	for i, f := range fams {
		fs := FamilySnapshot{
			Name:    f.name,
			Help:    f.help,
			Kind:    string(f.kind),
			Buckets: buckets[i],
		}
		children := append([]*child(nil), f.children...)
		sort.Slice(children, func(a, b int) bool { return children[a].sig < children[b].sig })
		for _, c := range children {
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
		snap.Families = append(snap.Families, fs)
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
// snapshot: family names and label names must fit their grammars and
// every kind must be one the registry renders.
func (s *Snapshot) validate() error {
	for _, fam := range s.Families {
		if !validName(fam.Name, true) {
			return fmt.Errorf("metrics: invalid family name %q", fam.Name)
		}
		if !metricKind(fam.Kind).valid() {
			return fmt.Errorf("metrics: family %s: unknown kind %q", fam.Name, fam.Kind)
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

// fedRow is one renderable sample set: a child with its instance label
// already merged into the rendered signature.
type fedRow struct {
	instance string
	sig      string
	child    ChildSnapshot
}

// fedFamily is one merged family across instances.
type fedFamily struct {
	name    string
	help    string
	kind    string
	buckets []float64
	rows    []fedRow
}

// WritePrometheus renders every instance's snapshot as one exposition
// page: families merged by name and sorted, children sorted by
// (instance, labels), an `instance` label injected on every sample. A
// family whose kind (or histogram buckets) conflicts across instances
// renders the first contributor's shape — in sorted instance order, so
// the output is deterministic — and skips the conflicting children. An
// existing `instance` label on a child is preserved as
// `exported_instance`.
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

	merged := make(map[string]*fedFamily)
	var order []string
	for i, name := range names {
		for fi := range snaps[i].Families {
			fam := &snaps[i].Families[fi]
			mf, ok := merged[fam.Name]
			if !ok {
				mf = &fedFamily{
					name:    fam.Name,
					help:    fam.Help,
					kind:    fam.Kind,
					buckets: fam.Buckets,
				}
				merged[fam.Name] = mf
				order = append(order, fam.Name)
			}
			if mf.help == "" {
				mf.help = fam.Help
			}
			if fam.Kind != mf.kind {
				continue // kind conflict: first contributor wins
			}
			if mf.kind == string(kindHistogram) && !equalFloats(fam.Buckets, mf.buckets) {
				continue // bucket conflict: first contributor wins
			}
			for _, c := range fam.Children {
				mf.rows = append(mf.rows, fedRow{
					instance: name,
					sig:      instanceSignature(c.Labels, name),
					child:    c,
				})
			}
		}
	}
	sort.Strings(order)

	var b strings.Builder
	for _, famName := range order {
		mf := merged[famName]
		if mf.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", mf.name, strings.ReplaceAll(mf.help, "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", mf.name, mf.kind)
		sort.Slice(mf.rows, func(i, j int) bool {
			if mf.rows[i].instance != mf.rows[j].instance {
				return mf.rows[i].instance < mf.rows[j].instance
			}
			return mf.rows[i].sig < mf.rows[j].sig
		})
		for _, row := range mf.rows {
			if mf.kind == string(kindHistogram) {
				if len(row.child.BucketCounts) != len(mf.buckets)+1 {
					continue // malformed child; never corrupt the page
				}
				var cum uint64
				for k, bound := range mf.buckets {
					cum += row.child.BucketCounts[k]
					fmt.Fprintf(&b, "%s_bucket%s %d\n", mf.name, labelsWith(row.sig, "le", formatFloat(bound)), cum)
				}
				cum += row.child.BucketCounts[len(mf.buckets)]
				fmt.Fprintf(&b, "%s_bucket%s %d\n", mf.name, labelsWith(row.sig, "le", "+Inf"), cum)
				fmt.Fprintf(&b, "%s_sum%s %s\n", mf.name, row.sig, formatFloat(row.child.Sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", mf.name, row.sig, row.child.Count)
			} else {
				fmt.Fprintf(&b, "%s%s %s\n", mf.name, row.sig, formatFloat(row.child.Value))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// instanceSignature renders a child's labels with the federation's
// instance label injected. A pre-existing "instance" label moves to
// "exported_instance" so the injected one is authoritative; when that
// name is taken too, "exported_" is prepended until it is free, as
// Prometheus does, so no label is lost and every render is the same.
func instanceSignature(l Labels, instance string) string {
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
	return labelSignature(out)
}
