// Package metrics is the repository's dependency-free instrumentation
// layer: atomic counters, gauges and fixed-bucket histograms collected
// into a Registry that renders the Prometheus text exposition format.
// Every layer of the stack — queue, store, engine hot path, campaign
// scheduler, HTTP daemon — registers its metrics here, and dramdigd
// serves the registry at GET /v1/metrics.
//
// Two properties shape the design:
//
//   - Hot-path safety. Metric updates are single atomic operations (the
//     histogram adds one CAS for its sum) and never allocate. A loop
//     that one goroutine owns, like the engine's MeasurePair loop,
//     observes into a HistogramBatch without atomics and merges it now
//     and then. All metric methods are nil-receiver no-ops: code
//     instruments unconditionally and a nil metric — what a nil
//     *Registry hands out — disables the instrumentation at the cost of
//     one predictable branch.
//
//   - No dependencies. The package imports only the standard library, so
//     internal/timing and internal/queue can use it without dragging an
//     exporter into the measurement layers.
//
// Registration is idempotent: asking for the same name and label set
// again returns the existing metric, so independent components can share
// a family. Conflicting re-registration (same name, different type or
// buckets) panics — that is a programming error, caught at startup.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels attach dimensions to a metric at registration time. A nil map
// means the unlabeled child of the family.
type Labels map[string]string

// Counter is a monotonically increasing counter. All methods are safe on
// a nil receiver (no-ops), so disabled instrumentation is a nil pointer.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds d (negative to subtract).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram: cumulative bucket counts in the
// Prometheus style, plus sum and count. Buckets are upper bounds in
// ascending order; an implicit +Inf bucket catches the rest.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	sum    atomicFloat
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := bucketOf(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// bucketOf returns the index of the bucket holding v: bucket i holds
// values in (bounds[i−1], bounds[i]], the last one everything above.
func bucketOf(bounds []float64, v float64) int {
	i := 0
	for i < len(bounds) && v > bounds[i] {
		i++
	}
	return i
}

// HistogramBatch gathers observations for one Histogram in plain fields,
// for a hot path that a single goroutine owns: observing costs no
// atomic operation, and Histogram.Merge folds the batch in with one
// atomic add per bucket.
type HistogramBatch struct {
	bounds []float64
	counts []uint64 // len(bounds)+1, last is +Inf
	sum    float64
	count  uint64
	last   int // bucket of the previous observation, tried first
}

// NewBatch returns an empty batch with h's buckets. A nil h gives a
// batch that only counts, and merging it into h does nothing.
func (h *Histogram) NewBatch() *HistogramBatch {
	b := &HistogramBatch{}
	if h != nil {
		b.bounds = h.bounds
	}
	b.counts = make([]uint64, len(b.bounds)+1)
	return b
}

// Observe records one value in the batch.
func (b *HistogramBatch) Observe(v float64) {
	i := b.last
	if (i > 0 && v <= b.bounds[i-1]) || (i < len(b.bounds) && v > b.bounds[i]) {
		i = bucketOf(b.bounds, v)
		b.last = i
	}
	b.counts[i]++
	b.count++
	b.sum += v
}

// Count returns the number of observations not yet merged.
func (b *HistogramBatch) Count() uint64 { return b.count }

// Merge folds b's observations into h and empties b; a nil h drops
// them. b must come from h.NewBatch.
func (h *Histogram) Merge(b *HistogramBatch) {
	if h != nil && b.count > 0 {
		for i, n := range b.counts {
			if n > 0 {
				h.counts[i].Add(n)
			}
		}
		h.count.Add(b.count)
		h.sum.Add(b.sum)
	}
	clear(b.counts)
	b.sum, b.count = 0, 0
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// atomicFloat is a float64 accumulated with CAS on its bit pattern.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// ExpBuckets returns n upper bounds starting at start, each factor times
// the previous — the standard shape for latency histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n < 1 || start <= 0 || factor <= 1 {
		panic("metrics: ExpBuckets needs n >= 1, start > 0, factor > 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefSecondsBuckets spans 100µs to ~27s — a general-purpose latency
// range covering fsyncs, disk IO and HTTP requests.
func DefSecondsBuckets() []float64 { return ExpBuckets(100e-6, 3, 8) }

// metricKind is the family type, named as the exposition format spells it.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

func (k metricKind) valid() bool {
	return k == kindCounter || k == kindGauge || k == kindHistogram
}

// child is one labeled instance inside a family. Exactly one of the
// value fields is set.
type child struct {
	labels  Labels
	sig     string // canonical label signature, the dedup key
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64 // counterFunc / gaugeFunc callback
}

// family groups the children sharing one metric name.
type family struct {
	name     string
	help     string
	kind     metricKind
	buckets  []float64 // histograms only; conflict-checked on re-registration
	children []*child
	index    map[string]*child
}

// Registry collects metric families and renders them. A nil *Registry is
// a valid no-op: every constructor returns a nil metric whose methods do
// nothing — the "disabled" configuration.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter registers (or finds) a counter.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindCounter, nil, labels, nil).counter
}

// Gauge registers (or finds) a gauge.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindGauge, nil, labels, nil).gauge
}

// Histogram registers (or finds) a histogram with the given upper
// bounds (finite and ascending; +Inf implicit). Re-registration must
// use the same bounds.
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	if r == nil {
		return nil
	}
	for i, b := range buckets {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("metrics: histogram %s bucket %v is not finite", name, b))
		}
		if i > 0 && b <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: histogram %s buckets not ascending", name))
		}
	}
	if len(buckets) == 0 {
		panic(fmt.Sprintf("metrics: histogram %s needs at least one bucket", name))
	}
	return r.register(name, help, kindHistogram, buckets, labels, nil).hist
}

// GaugeFunc registers a gauge whose value is read from fn at render
// time — for values another component already tracks (queue depth, LRU
// entries).
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, help, kindGauge, nil, labels, fn)
}

// CounterFunc registers a counter read from fn at render time; fn must
// be monotonically non-decreasing (it reports a cumulative total some
// other component counts, like store hits).
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, help, kindCounter, nil, labels, fn)
}

// Declare registers an empty family so its # HELP/# TYPE header renders
// before any child exists — scrape consumers see the family from the
// first scrape even when the first event hasn't happened yet.
func (r *Registry) Declare(name, help string, kind string) {
	if r == nil {
		return
	}
	if !metricKind(kind).valid() {
		panic(fmt.Sprintf("metrics: Declare %s: unknown kind %q", name, kind))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.familyLocked(name, help, metricKind(kind), nil)
}

func (r *Registry) register(name, help string, kind metricKind, buckets []float64, labels Labels, fn func() float64) *child {
	mustValidName(name)
	for k := range labels {
		mustValidLabelName(k)
	}
	sig := labelSignature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, kind, buckets)
	if c, ok := f.index[sig]; ok {
		if (c.fn == nil) != (fn == nil) {
			panic(fmt.Sprintf("metrics: %s%s re-registered with a different collection mode", name, sig))
		}
		return c
	}
	c := &child{labels: cloneLabels(labels), sig: sig, fn: fn}
	// The instrument is built here, under the lock: concurrent
	// registrations of the same (name, labels) must all observe the same
	// fully-constructed value.
	if fn == nil {
		switch kind {
		case kindCounter:
			c.counter = &Counter{}
		case kindGauge:
			c.gauge = &Gauge{}
		case kindHistogram:
			c.hist = &Histogram{
				bounds: append([]float64(nil), f.buckets...),
				counts: make([]atomic.Uint64, len(f.buckets)+1),
			}
		}
	}
	f.children = append(f.children, c)
	f.index[sig] = c
	return c
}

func (r *Registry) familyLocked(name, help string, kind metricKind, buckets []float64) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name: name, help: help, kind: kind,
			buckets: append([]float64(nil), buckets...),
			index:   make(map[string]*child),
		}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s re-registered as %s (was %s)", name, kind, f.kind))
	}
	if kind == kindHistogram {
		if len(f.buckets) == 0 {
			f.buckets = append([]float64(nil), buckets...)
		} else if buckets != nil && !equalFloats(f.buckets, buckets) {
			panic(fmt.Sprintf("metrics: histogram %s re-registered with different buckets", name))
		}
	}
	return f
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func cloneLabels(l Labels) Labels {
	if len(l) == 0 {
		return nil
	}
	out := make(Labels, len(l))
	for k, v := range l {
		out[k] = v
	}
	return out
}

// validName reports whether name fits the Prometheus metric-name
// grammar ([a-zA-Z_:][a-zA-Z0-9_:]*) or, with colons false, the
// label-name grammar ([a-zA-Z_][a-zA-Z0-9_]*).
func validName(name string, colons bool) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		ok := c == '_' || (colons && c == ':') ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// mustValidName enforces the metric-name grammar at registration.
func mustValidName(name string) {
	if !validName(name, true) {
		panic(fmt.Sprintf("metrics: invalid name %q", name))
	}
}

// mustValidLabelName enforces the label-name grammar at registration.
func mustValidLabelName(name string) {
	if !validName(name, false) {
		panic(fmt.Sprintf("metrics: invalid label name %q", name))
	}
}

// labelValueEscaper escapes exactly what the text exposition format
// defines for label values: backslash, double-quote and newline. Go's %q
// would also emit \t, \xNN and \uNNNN escapes the format's parsers
// reject.
var labelValueEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// labelSignature canonicalizes a label set: sorted, escaped, rendered —
// both the dedup key and the rendered form.
func labelSignature(l Labels) string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(labelValueEscaper.Replace(l[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// labelsWith renders a label set extended with one extra pair (for
// histogram le labels).
func labelsWith(sig, key, val string) string {
	extra := key + `="` + labelValueEscaper.Replace(val) + `"`
	if sig == "" {
		return "{" + extra + "}"
	}
	return sig[:len(sig)-1] + "," + extra + "}"
}

// WritePrometheus renders the registry's snapshot, every family in name
// order and every child in label order, in the text exposition format
// (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	return writeFamilies(w, r.Snapshot().Families)
}

// writeFamilies renders families, in the order given, in the text
// exposition format. It is the one writer behind both pages: a
// registry's own snapshot and a federation's merged fleet. Counter and
// gauge values print by formatValue, bucket and observation counts as
// integers, and bucket bounds and histogram sums in Go's shortest float
// form. A histogram child whose bucket counts do not match its
// family's bounds is skipped, so a malformed foreign snapshot never
// corrupts the page.
func writeFamilies(w io.Writer, fams []FamilySnapshot) error {
	var b strings.Builder
	for _, f := range fams {
		if f.Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.Name, strings.ReplaceAll(f.Help, "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, f.Kind)
		for _, c := range f.Children {
			sig := labelSignature(c.Labels)
			if f.Kind != string(kindHistogram) {
				fmt.Fprintf(&b, "%s%s %s\n", f.Name, sig, formatValue(c.Value))
				continue
			}
			if len(c.BucketCounts) != len(f.Buckets)+1 {
				continue
			}
			var cum uint64
			for i, n := range c.BucketCounts {
				cum += n
				le := "+Inf"
				if i < len(f.Buckets) {
					le = formatFloat(f.Buckets[i])
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.Name, labelsWith(sig, "le", le), cum)
			}
			fmt.Fprintf(&b, "%s_sum%s %s\n", f.Name, sig, formatFloat(c.Sum))
			fmt.Fprintf(&b, "%s_count%s %d\n", f.Name, sig, c.Count)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatValue prints an integral value below 2^53, where every integer
// is exact, as an integer and any other value in Go's shortest float
// form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.FormatInt(int64(v), 10)
	}
	return formatFloat(v)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry over HTTP — what dramdigd mounts at
// /v1/metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
