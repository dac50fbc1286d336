package trace

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"dramdig/internal/machine"
)

// FuzzTraceDecode: traces cross process and disk boundaries (worker
// uploads, GET /v1/traces, tracectl). For arbitrary bytes Decode must
// not panic; a trace it accepts and Encode re-encodes must decode to
// the same header and bit-identical samples; and rebuilding the
// header's surface, which feeds foreign memory sizes and chip names
// into the allocator, must return a result or an error.
func FuzzTraceDecode(f *testing.F) {
	// A short recording of No.4, as a live run writes it.
	m, err := machine.NewByNo(4, 42)
	if err != nil {
		f.Fatal(err)
	}
	var rec bytes.Buffer
	w, err := NewWriter(&rec, HeaderFor(m, "dramdig", 7))
	if err != nil {
		f.Fatal(err)
	}
	r := NewRecorder(m, w)
	pages := slices.Collect(m.Pool().All())
	for i := 0; i < 8; i++ {
		r.MeasurePair(pages[i], pages[len(pages)-1-i], 100*(i+1))
	}
	if err := r.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(rec.Bytes())

	// A custom machine's header: the surface rebuilds from the declared
	// hardware instead of the registry.
	def := machine.Settings()[3]
	def.No, def.Name = 0, "custom"
	cm, err := machine.New(def, 5)
	if err != nil {
		f.Fatal(err)
	}
	var custom bytes.Buffer
	if err := (&Trace{Header: HeaderFor(cm, "dramdig", 1), Samples: []Sample{{A: 1, B: 2, Rounds: 3, LatencyNs: 4, ElapsedNs: 5}}}).Encode(&custom); err != nil {
		f.Fatal(err)
	}
	f.Add(custom.Bytes())
	f.Add([]byte("DRTR"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, pool, err := tr.Header.Surface(); err == nil && pool == nil {
			t.Fatal("Surface returned neither a pool nor an error")
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			return
		}
		back, err := Decode(&buf)
		if err != nil {
			t.Fatalf("decode of re-encoded trace: %v", err)
		}
		if back.Header != tr.Header {
			t.Fatalf("header changed in the round trip:\n got %+v\nwant %+v", back.Header, tr.Header)
		}
		if len(back.Samples) != len(tr.Samples) {
			t.Fatalf("%d samples after the round trip, want %d", len(back.Samples), len(tr.Samples))
		}
		for i, s := range tr.Samples {
			g := back.Samples[i]
			if g.A != s.A || g.B != s.B || g.Rounds != s.Rounds ||
				math.Float64bits(g.LatencyNs) != math.Float64bits(s.LatencyNs) ||
				math.Float64bits(g.ElapsedNs) != math.Float64bits(s.ElapsedNs) {
				t.Fatalf("sample %d changed in the round trip: %+v, want %+v", i, g, s)
			}
		}
	})
}
