// Package obs is the repository's request-scoped tracing layer: a
// dependency-free span tracer giving every campaign a causal chain from
// the HTTP request through queue wait, scheduler dispatch, per-job
// engine phases and store persistence. It is the sibling of
// internal/metrics — metrics answer "how much, in aggregate", spans
// answer "where did *this* campaign spend its time".
//
// The model is deliberately small and W3C-compatible: a trace is a
// 128-bit ID minted at the edge (or extracted from an inbound
// `traceparent` header), a span is a named interval with a 64-bit ID, a
// parent link, start/end timestamps, key/value attributes and a status.
// Finished spans land in a bounded in-memory ring indexed by trace ID,
// so the daemon can serve a campaign's whole span tree as JSON without
// an external collector. Trace context serializes to the W3C
// `traceparent` format (version 00), so the enqueue → scheduler handoff
// — and, later, a process boundary — carries correlation for free.
//
// Everything follows the repository's nil-safety idiom: a nil *Tracer,
// a nil *Span and a context without a tracer are all no-ops costing one
// predictable branch, so layers instrument unconditionally and pay
// nothing when tracing is not configured. Span creation is kept off the
// measurement hot path (phases, not samples); the root package's
// BenchmarkEngineOverhead prices it against bare runs, recorded as
// BENCH_campaign.json's tracing_overhead row.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is a 128-bit trace identifier (W3C trace-id).
type TraceID [16]byte

// SpanID is a 64-bit span identifier (W3C parent-id).
type SpanID [8]byte

// String renders the ID as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports the invalid all-zero ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the ID as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports the invalid all-zero ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// ParseTraceID parses 32 hex digits; the all-zero ID is invalid.
func ParseTraceID(s string) (TraceID, error) {
	var id TraceID
	if len(s) != 32 {
		return id, fmt.Errorf("obs: trace ID %q is not 32 hex digits", s)
	}
	if _, err := hex.Decode(id[:], []byte(strings.ToLower(s))); err != nil {
		return TraceID{}, fmt.Errorf("obs: trace ID %q: %w", s, err)
	}
	if id.IsZero() {
		return TraceID{}, fmt.Errorf("obs: trace ID is all zeros")
	}
	return id, nil
}

// ParseSpanID parses 16 hex digits; the all-zero ID is invalid.
func ParseSpanID(s string) (SpanID, error) {
	var id SpanID
	if len(s) != 16 {
		return id, fmt.Errorf("obs: span ID %q is not 16 hex digits", s)
	}
	if _, err := hex.Decode(id[:], []byte(strings.ToLower(s))); err != nil {
		return SpanID{}, fmt.Errorf("obs: span ID %q: %w", s, err)
	}
	if id.IsZero() {
		return SpanID{}, fmt.Errorf("obs: span ID is all zeros")
	}
	return id, nil
}

// SpanContext identifies one span within one trace — the part of a span
// that crosses process and serialization boundaries.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// Valid reports whether both IDs are non-zero.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// --- W3C traceparent ---------------------------------------------------

// TraceParentHeader is the W3C trace-context header name.
const TraceParentHeader = "traceparent"

// TraceParent serializes the context in W3C version-00 form:
// "00-<32 hex trace-id>-<16 hex parent-id>-01" (sampled flag always
// set — the tracer records everything it is given, the ring bounds it).
func (sc SpanContext) TraceParent() string {
	if !sc.Valid() {
		return ""
	}
	return "00-" + sc.TraceID.String() + "-" + sc.SpanID.String() + "-01"
}

// ParseTraceParent parses a W3C traceparent value. Per the spec,
// version "ff" is invalid, all-zero IDs are invalid, and versions newer
// than 00 are accepted as long as the first three fields parse (their
// extra fields are ignored); version 00 must have exactly four fields.
func ParseTraceParent(s string) (SpanContext, error) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) < 4 {
		return SpanContext{}, fmt.Errorf("obs: traceparent %q: want version-traceid-parentid-flags", s)
	}
	version := strings.ToLower(parts[0])
	if len(version) != 2 || !isHex(version) {
		return SpanContext{}, fmt.Errorf("obs: traceparent %q: bad version", s)
	}
	if version == "ff" {
		return SpanContext{}, fmt.Errorf("obs: traceparent %q: version ff is invalid", s)
	}
	if version == "00" && len(parts) != 4 {
		return SpanContext{}, fmt.Errorf("obs: traceparent %q: version 00 has exactly four fields", s)
	}
	if len(parts[3]) != 2 || !isHex(parts[3]) {
		return SpanContext{}, fmt.Errorf("obs: traceparent %q: bad flags", s)
	}
	tid, err := ParseTraceID(parts[1])
	if err != nil {
		return SpanContext{}, err
	}
	var sid SpanID
	if len(parts[2]) != 16 || !isHex(parts[2]) {
		return SpanContext{}, fmt.Errorf("obs: traceparent %q: parent-id is not 16 hex digits", s)
	}
	if _, err := hex.Decode(sid[:], []byte(strings.ToLower(parts[2]))); err != nil {
		return SpanContext{}, fmt.Errorf("obs: traceparent %q: %w", s, err)
	}
	if sid.IsZero() {
		return SpanContext{}, fmt.Errorf("obs: traceparent %q: parent-id is all zeros", s)
	}
	return SpanContext{TraceID: tid, SpanID: sid}, nil
}

func isHex(s string) bool {
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') && (c < 'A' || c > 'F') {
			return false
		}
	}
	return true
}

// Extract reads a span context from an inbound traceparent header. The
// bool is false when the header is absent or malformed — the caller
// mints a fresh trace in that case.
func Extract(h http.Header) (SpanContext, bool) {
	v := h.Get(TraceParentHeader)
	if v == "" {
		return SpanContext{}, false
	}
	sc, err := ParseTraceParent(v)
	if err != nil {
		return SpanContext{}, false
	}
	return sc, true
}

// --- attributes --------------------------------------------------------

// Attr is one span attribute. Values are strings — spans are a
// diagnostic surface, not a metrics pipeline.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// KV builds a string attribute.
func KV(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, Value: strconv.FormatInt(v, 10)} }

// --- spans -------------------------------------------------------------

// SpanData is one finished span — the immutable record the tracer's
// ring retains and the /spans endpoints serialize.
type SpanData struct {
	TraceID TraceID
	SpanID  SpanID
	Parent  SpanID // zero for a root span
	Name    string
	Start   time.Time
	End     time.Time
	Attrs   []Attr
	// Status is empty for OK spans, an error message otherwise.
	Status string
}

// Duration is the span's wall-clock length.
func (d SpanData) Duration() time.Duration { return d.End.Sub(d.Start) }

// validate reports why a finished span cannot be retained: a zero ID, a
// parent that is the span itself, or an end before its start.
func (d SpanData) validate() error {
	switch {
	case d.TraceID.IsZero() || d.SpanID.IsZero():
		return fmt.Errorf("obs: span %q lacks a trace or span ID", d.Name)
	case d.Parent == d.SpanID:
		return fmt.Errorf("obs: span %s is its own parent", d.SpanID)
	case d.End.Before(d.Start):
		return fmt.Errorf("obs: span %s ends %v before it starts", d.SpanID, -d.Duration())
	}
	return nil
}

// spanJSON is the wire shape of one span.
type spanJSON struct {
	TraceID      string            `json:"trace_id"`
	SpanID       string            `json:"span_id"`
	ParentSpanID string            `json:"parent_span_id,omitempty"`
	Name         string            `json:"name"`
	StartUnixNs  int64             `json:"start_unix_nano"`
	DurationNs   int64             `json:"duration_ns"`
	Status       string            `json:"status,omitempty"`
	Attrs        map[string]string `json:"attrs,omitempty"`
}

func (d SpanData) json() spanJSON {
	j := spanJSON{
		TraceID:     d.TraceID.String(),
		SpanID:      d.SpanID.String(),
		Name:        d.Name,
		StartUnixNs: d.Start.UnixNano(),
		DurationNs:  d.Duration().Nanoseconds(),
		Status:      d.Status,
	}
	if !d.Parent.IsZero() {
		j.ParentSpanID = d.Parent.String()
	}
	if len(d.Attrs) > 0 {
		j.Attrs = make(map[string]string, len(d.Attrs))
		for _, a := range d.Attrs {
			j.Attrs[a.Key] = a.Value
		}
	}
	return j
}

// MarshalJSON renders the span in the /v1/debug/spans wire shape.
func (d SpanData) MarshalJSON() ([]byte, error) { return marshalJSON(d.json()) }

// UnmarshalJSON parses the wire shape back into a SpanData — the
// inverse of MarshalJSON, so finished spans can be shipped across a
// process boundary (a worker's campaign spans riding its completion
// report) and ingested into another tracer's ring. It refuses a span
// that no tracer could have finished: one that is its own parent or
// whose duration is negative.
func (d *SpanData) UnmarshalJSON(b []byte) error {
	var j spanJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	tid, err := ParseTraceID(j.TraceID)
	if err != nil {
		return err
	}
	sid, err := ParseSpanID(j.SpanID)
	if err != nil {
		return err
	}
	var parent SpanID
	if j.ParentSpanID != "" {
		if parent, err = ParseSpanID(j.ParentSpanID); err != nil {
			return err
		}
	}
	start := time.Unix(0, j.StartUnixNs)
	sp := SpanData{
		TraceID: tid,
		SpanID:  sid,
		Parent:  parent,
		Name:    j.Name,
		Start:   start,
		End:     start.Add(time.Duration(j.DurationNs)),
		Status:  j.Status,
	}
	if err := sp.validate(); err != nil {
		return err
	}
	*d = sp
	if len(j.Attrs) > 0 {
		keys := make([]string, 0, len(j.Attrs))
		for k := range j.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		d.Attrs = make([]Attr, 0, len(keys))
		for _, k := range keys {
			d.Attrs = append(d.Attrs, Attr{Key: k, Value: j.Attrs[k]})
		}
	}
	return nil
}

// Span is a live, mutable span. All methods are safe on a nil receiver
// — obs.Start returns nil when no tracer is configured, and callers
// never check.
type Span struct {
	tracer *Tracer
	mu     sync.Mutex
	data   SpanData
	ended  bool
}

// Context returns the span's identity (zero for nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.data.TraceID, SpanID: s.data.SpanID}
}

// SetName renames the span — for spans whose final name is only known
// at the end, like HTTP server spans named after the matched route.
func (s *Span) SetName(name string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.data.Name = name
	s.mu.Unlock()
}

// SetAttr appends one attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.data.Attrs = append(s.data.Attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetAttrInt appends one integer attribute.
func (s *Span) SetAttrInt(key string, v int64) { s.SetAttr(key, strconv.FormatInt(v, 10)) }

// SetError records a non-OK status; a nil error is ignored, so the
// idiom `sp.SetError(err); sp.End()` needs no branch.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.data.Status = err.Error()
	s.mu.Unlock()
}

// SetStart rewrites the span's start time — for reconstructed intervals
// whose beginning predates the span object, like queue wait measured
// from the persisted submission timestamp.
func (s *Span) SetStart(t time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.data.Start = t
	s.mu.Unlock()
}

// End finishes the span now and hands it to the tracer's ring. Ending
// twice is a no-op, so `defer sp.End()` composes with early explicit
// ends on error paths.
func (s *Span) End() { s.EndAt(time.Now()) }

// EndAt finishes the span at an explicit time — the sibling of
// SetStart for reconstructed intervals.
func (s *Span) EndAt(t time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.data.End = t
	data := s.data
	s.mu.Unlock()
	s.tracer.finish(data)
}

// --- context plumbing --------------------------------------------------

type tracerKey struct{}
type spanCtxKey struct{}

// WithTracer returns a context carrying the tracer; obs.Start in any
// layer below picks it up. A nil tracer returns ctx unchanged.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey{}, t)
}

// TracerFrom returns the context's tracer (nil when absent).
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// WithSpanContext returns a context whose current span is sc — how an
// extracted remote parent (traceparent header, queue record) re-enters
// the in-process chain: the next Start becomes its child.
func WithSpanContext(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanContextFrom returns the context's current span context (zero
// when absent).
func SpanContextFrom(ctx context.Context) SpanContext {
	sc, _ := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc
}

// TraceParentFrom serializes the context's current span context ("" when
// absent) — what gets persisted into queue records and response headers.
func TraceParentFrom(ctx context.Context) string {
	return SpanContextFrom(ctx).TraceParent()
}

// LogAttrs returns trace_id/span_id slog attributes for the context's
// current span, or nil — so every structured log line inside a traced
// request correlates with its span tree for free:
//
//	log.Info("campaign transition", append(obs.LogAttrs(ctx), "campaign", id)...)
func LogAttrs(ctx context.Context) []any {
	sc := SpanContextFrom(ctx)
	if !sc.Valid() {
		return nil
	}
	return []any{"trace_id", sc.TraceID.String(), "span_id", sc.SpanID.String()}
}

// Start opens a span named name as a child of the context's current
// span (or a new root, minting a fresh trace ID, when there is none)
// and returns a context carrying it. Without a tracer in ctx it
// returns (ctx, nil) — and every method on the nil span is a no-op —
// so instrumentation sites never branch.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	parent := SpanContextFrom(ctx)
	sp := t.start(name, parent, attrs)
	return context.WithValue(ctx, spanCtxKey{}, sp.Context()), sp
}

// --- tracer ------------------------------------------------------------

// Config tunes a tracer. The zero value is usable.
type Config struct {
	// Capacity bounds the ring of retained finished spans (default
	// 4096); the oldest are dropped past it.
	Capacity int
	// SlowThreshold, when positive, promotes spans at or above it to a
	// WARN log line on Logger — the "why was this slow" breadcrumb that
	// needs no scrape or endpoint poll.
	SlowThreshold time.Duration
	// Logger receives slow-span warnings; nil discards them.
	Logger *slog.Logger
}

// Stats is a point-in-time census of the tracer.
type Stats struct {
	// Started and Finished count spans over the tracer's lifetime;
	// Dropped counts finished spans evicted from the ring.
	Started  uint64 `json:"started"`
	Finished uint64 `json:"finished"`
	Dropped  uint64 `json:"dropped"`
	// Retained is the current ring population.
	Retained int `json:"retained"`
}

// Tracer mints spans and retains finished ones in a bounded ring,
// indexed by trace ID. Safe for concurrent use; a nil *Tracer is a
// valid no-op.
type Tracer struct {
	capacity int
	slow     time.Duration
	logger   *slog.Logger

	started  atomic.Uint64
	finished atomic.Uint64
	dropped  atomic.Uint64

	mu      sync.Mutex
	ring    []SpanData // circular, oldest at next when full
	next    int
	full    bool
	byTrace map[TraceID][]int // trace ID → ring indices, oldest first
}

// NewTracer builds a tracer.
func NewTracer(cfg Config) *Tracer {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 4096
	}
	return &Tracer{
		capacity: cfg.Capacity,
		slow:     cfg.SlowThreshold,
		logger:   cfg.Logger,
		ring:     make([]SpanData, 0, cfg.Capacity),
		byTrace:  make(map[TraceID][]int),
	}
}

// start mints a live span. Exposed only through obs.Start so parenting
// always flows through the context.
func (t *Tracer) start(name string, parent SpanContext, attrs []Attr) *Span {
	if t == nil {
		return nil
	}
	t.started.Add(1)
	data := SpanData{
		SpanID: newSpanID(),
		Name:   name,
		Start:  time.Now(),
		Attrs:  attrs,
	}
	if parent.Valid() {
		data.TraceID = parent.TraceID
		data.Parent = parent.SpanID
	} else {
		data.TraceID = newTraceID()
	}
	return &Span{tracer: t, data: data}
}

// finish lands one completed span in the ring and emits the slow-span
// warning when configured.
func (t *Tracer) finish(data SpanData) {
	if t == nil {
		return
	}
	t.finished.Add(1)
	if t.slow > 0 && data.Duration() >= t.slow && t.logger != nil {
		t.logger.Warn("slow span",
			"span", data.Name,
			"duration_ms", float64(data.Duration().Microseconds())/1000,
			"trace_id", data.TraceID.String(),
			"span_id", data.SpanID.String(),
			"status", data.Status,
		)
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	var idx int
	if !t.full && len(t.ring) < t.capacity {
		idx = len(t.ring)
		t.ring = append(t.ring, data)
		if len(t.ring) == t.capacity {
			t.full = true
		}
	} else {
		// Overwrite the oldest slot and unindex its previous tenant.
		idx = t.next
		old := t.ring[idx]
		t.unindexLocked(old.TraceID, idx)
		t.ring[idx] = data
		t.next = (t.next + 1) % t.capacity
		t.dropped.Add(1)
	}
	t.byTrace[data.TraceID] = append(t.byTrace[data.TraceID], idx)
}

// Ingest lands already-finished spans — typically deserialized from a
// remote process — in the ring, exactly as if they had finished here,
// and returns how many it accepted. Spans without valid IDs, spans that
// are their own parent and spans that end before they start are
// skipped. The started counter deliberately does not move: these spans
// were started elsewhere, and Stats should not suggest this tracer is
// leaking unfinished spans.
func (t *Tracer) Ingest(spans ...SpanData) int {
	if t == nil {
		return 0
	}
	n := 0
	for _, sp := range spans {
		if sp.validate() != nil {
			continue
		}
		t.finish(sp)
		n++
	}
	return n
}

// unindexLocked removes one ring slot from its trace's index, dropping
// the trace entirely once its last span is evicted.
func (t *Tracer) unindexLocked(id TraceID, idx int) {
	slots := t.byTrace[id]
	for i, s := range slots {
		if s == idx {
			slots = append(slots[:i], slots[i+1:]...)
			break
		}
	}
	if len(slots) == 0 {
		delete(t.byTrace, id)
	} else {
		t.byTrace[id] = slots
	}
}

// TraceSpans returns copies of every retained span of one trace, oldest
// start first. Spans evicted from the ring are gone — the ring is a
// diagnostic window, not an archive.
func (t *Tracer) TraceSpans(id TraceID) []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	slots := t.byTrace[id]
	out := make([]SpanData, 0, len(slots))
	for _, idx := range slots {
		out = append(out, t.ring[idx])
	}
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Recent returns up to limit retained spans, newest end first.
func (t *Tracer) Recent(limit int) []SpanData {
	if t == nil || limit <= 0 {
		return nil
	}
	t.mu.Lock()
	out := make([]SpanData, len(t.ring))
	copy(out, t.ring)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].End.After(out[j].End) })
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Stats returns the tracer's counters.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	t.mu.Lock()
	retained := len(t.ring)
	t.mu.Unlock()
	return Stats{
		Started:  t.started.Load(),
		Finished: t.finished.Load(),
		Dropped:  t.dropped.Load(),
		Retained: retained,
	}
}

// --- span trees --------------------------------------------------------

// TreeNode is one span with its children — the nested JSON shape of
// GET /v1/campaigns/{id}/spans.
type TreeNode struct {
	Span     SpanData
	Children []*TreeNode
}

// MarshalJSON flattens the span fields and nests the children.
func (n *TreeNode) MarshalJSON() ([]byte, error) {
	return marshalJSON(struct {
		spanJSON
		Children []*TreeNode `json:"children,omitempty"`
	}{n.Span.json(), n.Children})
}

// BuildTree links spans into parent/child trees. Roots — spans whose
// parent is zero or not retained (evicted, or living in another
// process) — sort by start time, as do every node's children.
func BuildTree(spans []SpanData) []*TreeNode {
	nodes := make(map[SpanID]*TreeNode, len(spans))
	for _, sp := range spans {
		// Duplicate span IDs cannot happen from one tracer; last wins.
		nodes[sp.SpanID] = &TreeNode{Span: sp}
	}
	var roots []*TreeNode
	for _, n := range nodes {
		if parent, ok := nodes[n.Span.Parent]; ok && !n.Span.Parent.IsZero() && parent != n {
			parent.Children = append(parent.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	sortNodes(roots)
	for _, n := range nodes {
		sortNodes(n.Children)
	}
	return roots
}

func sortNodes(ns []*TreeNode) {
	sort.SliceStable(ns, func(i, j int) bool { return ns[i].Span.Start.Before(ns[j].Span.Start) })
}

// --- ID generation -----------------------------------------------------

// newTraceID / newSpanID read crypto/rand: spans are minted at phase
// granularity (a handful per request), so the syscall cost is noise,
// and collision-resistance across restarts and future worker nodes
// comes free.
func newTraceID() TraceID {
	var id TraceID
	fillRandom(id[:])
	return id
}

func newSpanID() SpanID {
	var id SpanID
	fillRandom(id[:])
	return id
}

// fallbackSeq keeps IDs unique if crypto/rand ever fails (effectively
// unreachable); never all-zero either way.
var fallbackSeq atomic.Uint64

func fillRandom(b []byte) {
	if _, err := rand.Read(b); err != nil {
		binary.BigEndian.PutUint64(b[len(b)-8:], fallbackSeq.Add(1))
	}
	allZero := true
	for _, c := range b {
		if c != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		b[len(b)-1] = 1
	}
}

// marshalJSON is encoding/json.Marshal behind one name: the custom
// MarshalJSON methods above marshal *derived* types, so delegating here
// cannot recurse, and the name makes that deliberate.
func marshalJSON(v any) ([]byte, error) { return json.Marshal(v) }
