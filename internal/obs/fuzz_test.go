package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// FuzzParseTraceParent: traceparent values arrive in inbound HTTP
// headers and inside queued jobs. For arbitrary input ParseTraceParent
// must not panic; a value it accepts must be a valid span context whose
// IDs are the input's lowercased fields, and the context must survive a
// round trip through TraceParent.
func FuzzParseTraceParent(f *testing.F) {
	for _, s := range malformedTraceParents {
		f.Add(s)
	}
	f.Add("00-0102030405060708090a0b0c0d0e0f10-0102030405060708-01")
	f.Add(" 00-0102030405060708090A0B0C0D0E0F10-0102030405060708-00\t")
	f.Add("cc-0102030405060708090a0b0c0d0e0f10-0102030405060708-01-what-ever")
	f.Fuzz(func(t *testing.T, s string) {
		sc, err := ParseTraceParent(s)
		if err != nil {
			return
		}
		if !sc.Valid() {
			t.Fatalf("%q: accepted an invalid context %+v", s, sc)
		}
		fields := strings.Split(strings.TrimSpace(s), "-")
		if got, want := sc.TraceID.String(), strings.ToLower(fields[1]); got != want {
			t.Fatalf("%q: trace ID %s, want %s", s, got, want)
		}
		if got, want := sc.SpanID.String(), strings.ToLower(fields[2]); got != want {
			t.Fatalf("%q: span ID %s, want %s", s, got, want)
		}
		back, err := ParseTraceParent(sc.TraceParent())
		if err != nil || back != sc {
			t.Fatalf("%q: round trip through %q gave %+v, %v", s, sc.TraceParent(), back, err)
		}
	})
}

// FuzzSpanIngest: worker spans arrive in completion bodies and land in
// the coordinator's ring, where /spans and the timeline read them. The
// input is a JSON array; each element is decoded as a span, and its
// fields are also handed to Ingest unchecked, as an in-process caller
// could. Nothing may panic; the decoder must accept only valid spans;
// Ingest must accept exactly the valid ones; every retained span must
// survive a round trip through the wire shape; and each trace's tree
// must place every retained span at most once.
func FuzzSpanIngest(f *testing.F) {
	const span = `{"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736","span_id":"00f067aa0ba902b7",` +
		`"name":"worker.campaign","start_unix_nano":1700000000000000000,"duration_ns":1500,"attrs":{"worker":"w1"}}`
	f.Add([]byte(`[` + span + `]`))
	f.Add([]byte(`[{"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736","span_id":"00f067aa0ba902b7","name":"x","start_unix_nano":1700000000000000000,"duration_ns":-5000}]`))
	f.Add([]byte(`[{"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736","span_id":"00f067aa0ba902b7","parent_span_id":"00f067aa0ba902b7","name":"self"}]`))
	f.Add([]byte(`[{"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736","span_id":"0000000000000001","parent_span_id":"0000000000000002","name":"a"},` +
		`{"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736","span_id":"0000000000000002","parent_span_id":"0000000000000001","name":"b"}]`))
	f.Add([]byte(`[{"trace_id":"","span_id":"zz","duration_ns":9223372036854775807,"start_unix_nano":-9223372036854775808}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var raws []json.RawMessage
		if json.Unmarshal(data, &raws) != nil {
			return
		}
		var in []SpanData
		valid := 0
		for _, raw := range raws {
			var sp SpanData
			if err := json.Unmarshal(raw, &sp); err == nil {
				if err := sp.validate(); err != nil {
					t.Fatalf("decoder accepted %s: %v", raw, err)
				}
				in = append(in, sp)
				valid++
			}
			var j spanJSON
			if json.Unmarshal(raw, &j) != nil {
				continue
			}
			tid, _ := ParseTraceID(j.TraceID)
			sid, _ := ParseSpanID(j.SpanID)
			parent, _ := ParseSpanID(j.ParentSpanID)
			start := time.Unix(0, j.StartUnixNs)
			raw := SpanData{TraceID: tid, SpanID: sid, Parent: parent, Name: j.Name,
				Start: start, End: start.Add(time.Duration(j.DurationNs))}
			if raw.validate() == nil {
				valid++
			}
			in = append(in, raw)
		}
		tr := NewTracer(Config{Capacity: 4 * len(in)})
		if n := tr.Ingest(in...); n != valid {
			t.Fatalf("ingested %d of %d spans, %d of them valid", n, len(in), valid)
		}
		traces := map[TraceID]bool{}
		for _, sp := range tr.Recent(len(in)) {
			if err := sp.validate(); err != nil {
				t.Fatalf("retained an invalid span: %v", err)
			}
			b, err := json.Marshal(sp)
			if err != nil {
				t.Fatal(err)
			}
			var back SpanData
			if err := json.Unmarshal(b, &back); err != nil {
				t.Fatalf("retained span %s does not decode: %v", b, err)
			}
			if back.TraceID != sp.TraceID || back.SpanID != sp.SpanID || back.Parent != sp.Parent ||
				!back.Start.Equal(sp.Start) || back.Duration() != sp.Duration() {
				t.Fatalf("round trip of %s gave %+v", b, back)
			}
			traces[sp.TraceID] = true
		}
		for id := range traces {
			placed := map[SpanID]bool{}
			var walk func([]*TreeNode)
			walk = func(nodes []*TreeNode) {
				for _, n := range nodes {
					if placed[n.Span.SpanID] {
						t.Fatalf("span %s placed twice in its trace's tree", n.Span.SpanID)
					}
					placed[n.Span.SpanID] = true
					walk(n.Children)
				}
			}
			walk(BuildTree(tr.TraceSpans(id)))
		}
	})
}
