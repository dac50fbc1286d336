package obs

import (
	"strings"
	"testing"
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
