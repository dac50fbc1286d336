package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func testTracer() *Tracer { return NewTracer(Config{}) }

func TestStartParenting(t *testing.T) {
	tr := testTracer()
	ctx := WithTracer(context.Background(), tr)

	ctx1, root := Start(ctx, "root")
	if root == nil {
		t.Fatal("Start returned nil span with tracer in ctx")
	}
	rc := root.Context()
	if !rc.Valid() {
		t.Fatalf("root span context invalid: %+v", rc)
	}
	if !root.data.Parent.IsZero() {
		t.Fatalf("root span has parent %s", root.data.Parent)
	}

	ctx2, child := Start(ctx1, "child")
	cc := child.Context()
	if cc.TraceID != rc.TraceID {
		t.Fatalf("child trace %s != root trace %s", cc.TraceID, rc.TraceID)
	}
	if child.data.Parent != rc.SpanID {
		t.Fatalf("child parent %s != root span %s", child.data.Parent, rc.SpanID)
	}

	_, grand := Start(ctx2, "grandchild")
	if grand.data.Parent != cc.SpanID {
		t.Fatalf("grandchild parent %s != child span %s", grand.data.Parent, cc.SpanID)
	}

	grand.End()
	child.End()
	root.End()

	spans := tr.TraceSpans(rc.TraceID)
	if len(spans) != 3 {
		t.Fatalf("retained %d spans, want 3", len(spans))
	}
}

func TestStartWithoutTracerIsNoop(t *testing.T) {
	ctx, sp := Start(context.Background(), "orphan")
	if sp != nil {
		t.Fatalf("expected nil span, got %+v", sp)
	}
	// Every method must be nil-safe.
	sp.SetName("x")
	sp.SetAttr("k", "v")
	sp.SetAttrInt("n", 1)
	sp.SetError(errors.New("boom"))
	sp.SetStart(time.Now())
	sp.End()
	sp.EndAt(time.Now())
	if sc := sp.Context(); sc.Valid() {
		t.Fatalf("nil span context should be invalid, got %+v", sc)
	}
	if sc := SpanContextFrom(ctx); sc.Valid() {
		t.Fatalf("ctx should carry no span context, got %+v", sc)
	}
}

func TestNilTracerIsNoop(t *testing.T) {
	var tr *Tracer
	if sp := tr.start("x", SpanContext{}, nil); sp != nil {
		t.Fatal("nil tracer minted a span")
	}
	tr.finish(SpanData{})
	if got := tr.TraceSpans(TraceID{1}); got != nil {
		t.Fatalf("nil tracer returned spans: %v", got)
	}
	if got := tr.Recent(5); got != nil {
		t.Fatalf("nil tracer returned recent: %v", got)
	}
	if st := tr.Stats(); st != (Stats{}) {
		t.Fatalf("nil tracer stats non-zero: %+v", st)
	}
	if ctx := WithTracer(context.Background(), nil); TracerFrom(ctx) != nil {
		t.Fatal("WithTracer(nil) stored a tracer")
	}
}

func TestRemoteParentReentry(t *testing.T) {
	tr := testTracer()
	remote := SpanContext{TraceID: TraceID{1, 2, 3}, SpanID: SpanID{4, 5, 6}}
	ctx := WithSpanContext(WithTracer(context.Background(), tr), remote)

	_, sp := Start(ctx, "local")
	if sp.data.TraceID != remote.TraceID {
		t.Fatalf("span trace %s, want remote %s", sp.data.TraceID, remote.TraceID)
	}
	if sp.data.Parent != remote.SpanID {
		t.Fatalf("span parent %s, want remote %s", sp.data.Parent, remote.SpanID)
	}
}

func TestTraceParentRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: TraceID{0xde, 0xad, 0xbe, 0xef}, SpanID: SpanID{0x01, 0x02}}
	tp := sc.TraceParent()
	want := "00-deadbeef000000000000000000000000-0102000000000000-01"
	if tp != want {
		t.Fatalf("TraceParent = %q, want %q", tp, want)
	}
	got, err := ParseTraceParent(tp)
	if err != nil {
		t.Fatalf("ParseTraceParent(%q): %v", tp, err)
	}
	if got != sc {
		t.Fatalf("round trip %+v != %+v", got, sc)
	}
}

// malformedTraceParents are values ParseTraceParent must refuse; they
// also seed FuzzParseTraceParent.
var malformedTraceParents = []string{
	"",
	"garbage",
	"00-abc-def-01",
	"00-00000000000000000000000000000000-0102030405060708-01",       // zero trace ID
	"00-0102030405060708090a0b0c0d0e0f10-0000000000000000-01",       // zero span ID
	"ff-0102030405060708090a0b0c0d0e0f10-0102030405060708-01",       // version ff
	"00-0102030405060708090a0b0c0d0e0f10-0102030405060708-01-extra", // v00 extra field
	"zz-0102030405060708090a0b0c0d0e0f10-0102030405060708-01",       // non-hex version
	"00-0102030405060708090a0b0c0d0e0fXX-0102030405060708-01",       // non-hex trace
	"00-0102030405060708090a0b0c0d0e0f10-01020304050607XX-01",       // non-hex span
	"00-0102030405060708090a0b0c0d0e0f10-0102030405060708-XX",       // non-hex flags
	"00-0102030405060708090a0b0c0d0e0f-0102030405060708-01",         // short trace
}

func TestParseTraceParentMalformed(t *testing.T) {
	for _, s := range malformedTraceParents {
		if _, err := ParseTraceParent(s); err == nil {
			t.Errorf("ParseTraceParent(%q) accepted malformed input", s)
		}
	}
	// Future version with extra fields is accepted per spec.
	got, err := ParseTraceParent("cc-0102030405060708090a0b0c0d0e0f10-0102030405060708-01-what-ever")
	if err != nil {
		t.Fatalf("future version rejected: %v", err)
	}
	if got.TraceID.String() != "0102030405060708090a0b0c0d0e0f10" {
		t.Fatalf("future version trace ID = %s", got.TraceID)
	}
}

func TestInjectExtract(t *testing.T) {
	tr := testTracer()
	ctx := WithTracer(context.Background(), tr)
	ctx, sp := Start(ctx, "client")
	defer sp.End()

	h := http.Header{}
	h.Set(TraceParentHeader, sp.Context().TraceParent())
	got, ok := Extract(h)
	if !ok {
		t.Fatalf("Extract failed on header %q", h.Get(TraceParentHeader))
	}
	if got != sp.Context() {
		t.Fatalf("extracted %+v, want %+v", got, sp.Context())
	}

	// Absent and malformed headers both report !ok.
	if _, ok := Extract(http.Header{}); ok {
		t.Fatal("Extract ok on empty header set")
	}
	h2 := http.Header{}
	h2.Set(TraceParentHeader, "not-a-traceparent")
	if _, ok := Extract(h2); ok {
		t.Fatal("Extract ok on malformed header")
	}
}

func TestRingEvictionAndIndex(t *testing.T) {
	tr := NewTracer(Config{Capacity: 4})
	ctx := WithTracer(context.Background(), tr)

	// First trace: 3 spans.
	ctx1, root1 := Start(ctx, "t1-root")
	tid1 := root1.Context().TraceID
	_, a := Start(ctx1, "t1-a")
	a.End()
	_, b := Start(ctx1, "t1-b")
	b.End()
	root1.End()

	if got := len(tr.TraceSpans(tid1)); got != 3 {
		t.Fatalf("trace1 retained %d, want 3", got)
	}

	// Second trace: 3 more spans overflow the 4-slot ring, evicting the
	// two oldest of trace 1.
	ctx2, root2 := Start(ctx, "t2-root")
	tid2 := root2.Context().TraceID
	_, c := Start(ctx2, "t2-a")
	c.End()
	root2.End()
	_, d := Start(ctx2, "t2-b")
	d.End()

	if got := len(tr.TraceSpans(tid2)); got != 3 {
		t.Fatalf("trace2 retained %d, want 3", got)
	}
	if got := len(tr.TraceSpans(tid1)); got != 1 {
		t.Fatalf("trace1 retained %d after eviction, want 1", got)
	}

	st := tr.Stats()
	if st.Started != 6 || st.Finished != 6 {
		t.Fatalf("stats %+v, want 6 started/finished", st)
	}
	if st.Dropped != 2 {
		t.Fatalf("dropped %d, want 2", st.Dropped)
	}
	if st.Retained != 4 {
		t.Fatalf("retained %d, want 4", st.Retained)
	}

	// Push enough spans to wash trace1 and trace2 out entirely; their
	// index entries must go with them (bounded memory).
	for i := 0; i < 8; i++ {
		_, sp := Start(ctx, "wash")
		sp.End()
	}
	if got := tr.TraceSpans(tid1); len(got) != 0 {
		t.Fatalf("trace1 still indexed after wash: %d spans", len(got))
	}
	if got := tr.TraceSpans(tid2); len(got) != 0 {
		t.Fatalf("trace2 still indexed after wash: %d spans", len(got))
	}
	tr.mu.Lock()
	idxLen := len(tr.byTrace)
	tr.mu.Unlock()
	if idxLen > 4 {
		t.Fatalf("byTrace index holds %d traces for a 4-slot ring", idxLen)
	}
}

func TestRecentOrderAndLimit(t *testing.T) {
	tr := testTracer()
	ctx := WithTracer(context.Background(), tr)
	base := time.Now()
	for i := 0; i < 5; i++ {
		_, sp := Start(ctx, fmt.Sprintf("s%d", i))
		sp.EndAt(base.Add(time.Duration(i) * time.Second))
	}
	got := tr.Recent(3)
	if len(got) != 3 {
		t.Fatalf("Recent(3) returned %d", len(got))
	}
	if got[0].Name != "s4" || got[1].Name != "s3" || got[2].Name != "s2" {
		t.Fatalf("Recent order wrong: %s %s %s", got[0].Name, got[1].Name, got[2].Name)
	}
	if tr.Recent(0) != nil {
		t.Fatal("Recent(0) should be nil")
	}
}

func TestDoubleEndAndAttrs(t *testing.T) {
	tr := testTracer()
	ctx := WithTracer(context.Background(), tr)
	_, sp := Start(ctx, "once", KV("init", "yes"))
	sp.SetAttr("k", "v")
	sp.SetAttrInt("n", 42)
	sp.SetError(nil) // ignored
	sp.SetError(errors.New("boom"))
	sp.End()
	sp.End() // no-op: must not double-record

	st := tr.Stats()
	if st.Finished != 1 {
		t.Fatalf("double End recorded %d finishes", st.Finished)
	}
	spans := tr.TraceSpans(sp.Context().TraceID)
	if len(spans) != 1 {
		t.Fatalf("retained %d spans, want 1", len(spans))
	}
	d := spans[0]
	if d.Status != "boom" {
		t.Fatalf("status %q, want boom", d.Status)
	}
	want := map[string]string{"init": "yes", "k": "v", "n": "42"}
	got := map[string]string{}
	for _, a := range d.Attrs {
		got[a.Key] = a.Value
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("attr %s = %q, want %q (all: %v)", k, got[k], v, got)
		}
	}
}

func TestExplicitTimestamps(t *testing.T) {
	tr := testTracer()
	ctx := WithTracer(context.Background(), tr)
	start := time.Unix(100, 0)
	end := time.Unix(103, 500000000)
	_, sp := Start(ctx, "reconstructed")
	sp.SetStart(start)
	sp.EndAt(end)
	spans := tr.TraceSpans(sp.Context().TraceID)
	if len(spans) != 1 {
		t.Fatalf("retained %d", len(spans))
	}
	if got := spans[0].Duration(); got != 3500*time.Millisecond {
		t.Fatalf("duration %v, want 3.5s", got)
	}
}

func TestSlowSpanWarning(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	tr := NewTracer(Config{SlowThreshold: time.Second, Logger: logger})
	ctx := WithTracer(context.Background(), tr)

	_, fast := Start(ctx, "fast")
	fast.End()
	if buf.Len() != 0 {
		t.Fatalf("fast span logged: %s", buf.String())
	}

	_, slow := Start(ctx, "slow")
	slow.SetStart(time.Now().Add(-2 * time.Second))
	slow.End()
	line := buf.String()
	if line == "" {
		t.Fatal("slow span produced no warning")
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(line)), &rec); err != nil {
		t.Fatalf("warn line not JSON: %v: %s", err, line)
	}
	if rec["level"] != "WARN" {
		t.Fatalf("level %v, want WARN", rec["level"])
	}
	if rec["span"] != "slow" {
		t.Fatalf("span %v, want slow", rec["span"])
	}
	if rec["trace_id"] != slow.Context().TraceID.String() {
		t.Fatalf("trace_id %v, want %s", rec["trace_id"], slow.Context().TraceID)
	}
}

func TestLogAttrs(t *testing.T) {
	tr := testTracer()
	ctx := WithTracer(context.Background(), tr)
	if got := LogAttrs(ctx); got != nil {
		t.Fatalf("LogAttrs without span = %v", got)
	}
	ctx, sp := Start(ctx, "x")
	defer sp.End()
	attrs := LogAttrs(ctx)
	if len(attrs) != 4 || attrs[0] != "trace_id" || attrs[2] != "span_id" {
		t.Fatalf("LogAttrs = %v", attrs)
	}
	if attrs[1] != sp.Context().TraceID.String() || attrs[3] != sp.Context().SpanID.String() {
		t.Fatalf("LogAttrs values %v don't match span %+v", attrs, sp.Context())
	}
}

func TestBuildTree(t *testing.T) {
	tr := testTracer()
	ctx := WithTracer(context.Background(), tr)

	ctx1, root := Start(ctx, "request")
	tid := root.Context().TraceID
	ctx2, mid := Start(ctx1, "campaign.run")
	_, leafA := Start(ctx2, "engine.calibrate")
	leafA.End()
	_, leafB := Start(ctx2, "engine.fine")
	leafB.End()
	mid.End()
	root.End()

	roots := BuildTree(tr.TraceSpans(tid))
	if len(roots) != 1 {
		t.Fatalf("got %d roots, want 1", len(roots))
	}
	if roots[0].Span.Name != "request" {
		t.Fatalf("root %q, want request", roots[0].Span.Name)
	}
	if len(roots[0].Children) != 1 || roots[0].Children[0].Span.Name != "campaign.run" {
		t.Fatalf("tree mid level wrong: %+v", roots[0].Children)
	}
	leaves := roots[0].Children[0].Children
	if len(leaves) != 2 {
		t.Fatalf("got %d leaves, want 2", len(leaves))
	}
	if leaves[0].Span.Name != "engine.calibrate" || leaves[1].Span.Name != "engine.fine" {
		t.Fatalf("leaf order wrong: %s, %s", leaves[0].Span.Name, leaves[1].Span.Name)
	}

	// Orphans — parent evicted or remote — surface as roots.
	orphan := []SpanData{{
		TraceID: TraceID{9}, SpanID: SpanID{1}, Parent: SpanID{0xaa},
		Name: "orphan", Start: time.Unix(1, 0), End: time.Unix(2, 0),
	}}
	or := BuildTree(orphan)
	if len(or) != 1 || or[0].Span.Name != "orphan" {
		t.Fatalf("orphan tree wrong: %+v", or)
	}

	// JSON shape: nested children, flattened span fields.
	blob, err := json.Marshal(roots)
	if err != nil {
		t.Fatalf("marshal tree: %v", err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatalf("unmarshal tree: %v", err)
	}
	if decoded[0]["name"] != "request" || decoded[0]["trace_id"] != tid.String() {
		t.Fatalf("tree JSON root wrong: %v", decoded[0])
	}
	if _, ok := decoded[0]["children"]; !ok {
		t.Fatalf("tree JSON missing children: %v", decoded[0])
	}
}

func TestSpanDataJSON(t *testing.T) {
	d := SpanData{
		TraceID: TraceID{1}, SpanID: SpanID{2}, Parent: SpanID{3},
		Name:  "s",
		Start: time.Unix(10, 0), End: time.Unix(11, 0),
		Attrs:  []Attr{{Key: "k", Value: "v"}},
		Status: "bad",
	}
	blob, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	if m["trace_id"] != d.TraceID.String() || m["span_id"] != d.SpanID.String() {
		t.Fatalf("ids wrong: %v", m)
	}
	if m["parent_span_id"] != d.Parent.String() {
		t.Fatalf("parent wrong: %v", m)
	}
	if m["duration_ns"] != float64(time.Second.Nanoseconds()) {
		t.Fatalf("duration wrong: %v", m["duration_ns"])
	}
	if m["status"] != "bad" {
		t.Fatalf("status wrong: %v", m)
	}
	attrs, _ := m["attrs"].(map[string]any)
	if attrs["k"] != "v" {
		t.Fatalf("attrs wrong: %v", m["attrs"])
	}

	// Root span omits parent; OK span omits status.
	blob2, _ := json.Marshal(SpanData{TraceID: TraceID{1}, SpanID: SpanID{2}, Name: "r"})
	if strings.Contains(string(blob2), "parent_span_id") || strings.Contains(string(blob2), "status") {
		t.Fatalf("root/OK span JSON should omit parent and status: %s", blob2)
	}
}

func TestParseTraceIDValidation(t *testing.T) {
	if _, err := ParseTraceID("0102030405060708090a0b0c0d0e0f10"); err != nil {
		t.Fatalf("valid trace ID rejected: %v", err)
	}
	for _, s := range []string{"", "short", "00000000000000000000000000000000",
		"0102030405060708090a0b0c0d0e0fzz"} {
		if _, err := ParseTraceID(s); err == nil {
			t.Errorf("ParseTraceID(%q) accepted", s)
		}
	}
	// Uppercase hex is normalized.
	id, err := ParseTraceID("0102030405060708090A0B0C0D0E0F10")
	if err != nil {
		t.Fatalf("uppercase rejected: %v", err)
	}
	if id.String() != "0102030405060708090a0b0c0d0e0f10" {
		t.Fatalf("uppercase normalized wrong: %s", id)
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := NewTracer(Config{Capacity: 64})
	ctx := WithTracer(context.Background(), tr)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c1, root := Start(ctx, "root")
				_, child := Start(c1, "child")
				child.SetAttrInt("i", int64(i))
				child.End()
				root.End()
				tr.TraceSpans(root.Context().TraceID)
				tr.Recent(10)
				tr.Stats()
			}
		}(g)
	}
	wg.Wait()
	st := tr.Stats()
	if st.Started != 800 || st.Finished != 800 {
		t.Fatalf("stats after concurrency: %+v", st)
	}
	if st.Retained != 64 {
		t.Fatalf("retained %d, want full ring 64", st.Retained)
	}
}

func BenchmarkStartEnd(b *testing.B) {
	tr := NewTracer(Config{Capacity: 1024})
	ctx := WithTracer(context.Background(), tr)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "bench")
		sp.End()
	}
}

func BenchmarkStartNoTracer(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "bench")
		sp.End()
	}
}
