package obs

import (
	"encoding/json"
	"testing"
	"time"
)

// TestSpanDataRoundTrip: Marshal → Unmarshal reproduces the span at
// nanosecond fidelity, including the parent link and sorted attributes.
func TestSpanDataRoundTrip(t *testing.T) {
	tid, err := ParseTraceID("4bf92f3577b34da6a3ce929d0e0e4736")
	if err != nil {
		t.Fatal(err)
	}
	sid, err := ParseSpanID("00f067aa0ba902b7")
	if err != nil {
		t.Fatal(err)
	}
	parent, err := ParseSpanID("b7ad6b7169203331")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Unix(1700000000, 123456789)
	in := SpanData{
		TraceID: tid,
		SpanID:  sid,
		Parent:  parent,
		Name:    "worker.campaign",
		Start:   start,
		End:     start.Add(1500 * time.Millisecond),
		Attrs:   []Attr{KV("worker", "w1"), Int("jobs", 9)},
		Status:  "boom",
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out SpanData
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.TraceID != in.TraceID || out.SpanID != in.SpanID || out.Parent != in.Parent {
		t.Fatalf("IDs changed: %+v", out)
	}
	if out.Name != in.Name || out.Status != in.Status {
		t.Fatalf("name/status changed: %+v", out)
	}
	if !out.Start.Equal(in.Start) || out.Duration() != in.Duration() {
		t.Fatalf("timing changed: start %v dur %v", out.Start, out.Duration())
	}
	if len(out.Attrs) != 2 || out.Attrs[0] != Int("jobs", 9) || out.Attrs[1] != KV("worker", "w1") {
		t.Fatalf("attrs = %+v", out.Attrs)
	}
}

// TestTracerIngest: remote spans land in the ring under their own trace
// ID, tree-buildable alongside local spans of the same trace; invalid
// spans are skipped; a nil tracer accepts nothing.
func TestTracerIngest(t *testing.T) {
	tr := NewTracer(Config{Capacity: 16})
	ctx, root := Start(WithTracer(t.Context(), tr), "coordinator.request")
	root.End()
	sc := root.Context()

	remote := SpanData{
		TraceID: sc.TraceID,
		SpanID:  mustSpanID(t, "00f067aa0ba902b7"),
		Parent:  sc.SpanID,
		Name:    "worker.campaign",
		Start:   time.Now(),
		End:     time.Now().Add(time.Millisecond),
	}
	bad := SpanData{Name: "no ids"}
	backwards := remote
	backwards.SpanID = mustSpanID(t, "00f067aa0ba902b8")
	backwards.End = backwards.Start.Add(-5 * time.Microsecond)
	ownParent := remote
	ownParent.SpanID = mustSpanID(t, "00f067aa0ba902b9")
	ownParent.Parent = ownParent.SpanID
	if n := tr.Ingest(remote, bad, backwards, ownParent); n != 1 {
		t.Fatalf("ingested %d, want 1", n)
	}
	_ = ctx

	spans := tr.TraceSpans(sc.TraceID)
	if len(spans) != 2 {
		t.Fatalf("trace has %d spans, want 2", len(spans))
	}
	roots := BuildTree(spans)
	if len(roots) != 1 || roots[0].Span.Name != "coordinator.request" {
		t.Fatalf("tree roots = %+v", roots)
	}
	if len(roots[0].Children) != 1 || roots[0].Children[0].Span.Name != "worker.campaign" {
		t.Fatalf("remote span not a child of the local root")
	}

	var nilTracer *Tracer
	if n := nilTracer.Ingest(remote); n != 0 {
		t.Fatalf("nil tracer ingested %d", n)
	}
}

func mustSpanID(t *testing.T, s string) SpanID {
	t.Helper()
	id, err := ParseSpanID(s)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestSpanDataDecodeRefusesImpossibleSpans: the wire decoder refuses a
// span with a negative duration or with itself as parent, as it refuses
// malformed IDs.
func TestSpanDataDecodeRefusesImpossibleSpans(t *testing.T) {
	for _, body := range []string{
		`{"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736","span_id":"00f067aa0ba902b7","name":"x","start_unix_nano":1700000000000000000,"duration_ns":-5000}`,
		`{"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736","span_id":"00f067aa0ba902b7","parent_span_id":"00f067aa0ba902b7","name":"x","start_unix_nano":1700000000000000000,"duration_ns":5000}`,
		`{"trace_id":"00000000000000000000000000000000","span_id":"00f067aa0ba902b7","name":"x"}`,
	} {
		var sp SpanData
		if err := json.Unmarshal([]byte(body), &sp); err == nil {
			t.Errorf("decoded %s as %+v", body, sp)
		}
	}
	var sp SpanData
	ok := `{"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736","span_id":"00f067aa0ba902b7","name":"x","start_unix_nano":1700000000000000000}`
	if err := json.Unmarshal([]byte(ok), &sp); err != nil || sp.Duration() != 0 {
		t.Errorf("zero-length span refused: %v", err)
	}
}
