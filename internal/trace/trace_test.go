package trace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"slices"
	"strings"
	"testing"

	"dramdig/internal/addr"
	"dramdig/internal/machine"
)

func sampleHeader(t *testing.T) Header {
	t.Helper()
	m, err := machine.NewByNo(4, 42)
	if err != nil {
		t.Fatal(err)
	}
	return HeaderFor(m, "dramdig", 7)
}

func TestCodecRoundTrip(t *testing.T) {
	h := sampleHeader(t)
	h.Note = "round trip"
	want := &Trace{
		Header: h,
		Samples: []Sample{
			{A: 0x1000, B: 0x2040, Rounds: 1200, LatencyNs: 43.25, ElapsedNs: 103800},
			{A: 0xfff_ffff_f000, B: 0, Rounds: 4, LatencyNs: 71.5, ElapsedNs: 572},
			{A: 1, B: 2, Rounds: 600, LatencyNs: -3.5, ElapsedNs: 0},
			{A: math.MaxUint64 >> 1, B: 0x40, Rounds: 0, LatencyNs: math.Pi, ElapsedNs: 1e12},
		},
	}
	var buf bytes.Buffer
	if err := want.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Header != want.Header {
		t.Fatalf("header mismatch:\n got %+v\nwant %+v", got.Header, want.Header)
	}
	if len(got.Samples) != len(want.Samples) {
		t.Fatalf("got %d samples, want %d", len(got.Samples), len(want.Samples))
	}
	for i := range want.Samples {
		if got.Samples[i] != want.Samples[i] {
			t.Errorf("sample %d: got %+v want %+v", i, got.Samples[i], want.Samples[i])
		}
	}
}

func TestCodecStreaming(t *testing.T) {
	h := sampleHeader(t)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	for i := 0; i < n; i++ {
		s := Sample{A: addr.Phys(i * 64), B: addr.Phys(i*64 + 4096), Rounds: 600,
			LatencyNs: 40 + float64(i%7), ElapsedNs: float64(i)}
		if err := w.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != n {
		t.Fatalf("Count = %d, want %d", w.Count(), n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r.Header().Machine.Fingerprint != h.Machine.Fingerprint {
		t.Fatalf("header fingerprint lost")
	}
	count := 0
	for {
		s, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if s.Rounds != 600 {
			t.Fatalf("sample %d rounds = %d", count, s.Rounds)
		}
		count++
	}
	if count != n {
		t.Fatalf("read %d samples, want %d", count, n)
	}
}

func TestCodecRejectsCorruption(t *testing.T) {
	h := sampleHeader(t)
	tr := &Trace{Header: h, Samples: []Sample{{A: 1, B: 2, Rounds: 4, LatencyNs: 40}}}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	if _, err := Decode(strings.NewReader("not a trace at all")); err == nil {
		t.Error("bad magic accepted")
	}
	bad := append([]byte(nil), valid...)
	bad[4] = 99 // version
	if _, err := Decode(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("bad version accepted: %v", err)
	}
	if _, err := Decode(bytes.NewReader(valid[:len(valid)-3])); err == nil {
		t.Error("truncated record accepted")
	}
	if _, err := Decode(bytes.NewReader(valid[:8])); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestHeaderSurfaceMatchesMachine(t *testing.T) {
	m, err := machine.NewByNo(4, 999)
	if err != nil {
		t.Fatal(err)
	}
	h := HeaderFor(m, "dramdig", 1)
	info, pool, err := h.Surface()
	if err != nil {
		t.Fatal(err)
	}
	if info != m.SysInfo() {
		t.Fatalf("rebuilt sysinfo differs:\n got %+v\nwant %+v", info, m.SysInfo())
	}
	got, want := slices.Collect(pool.All()), slices.Collect(m.Pool().All())
	if len(got) != len(want) {
		t.Fatalf("rebuilt pool has %d pages, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rebuilt pool diverges at page %d: %x vs %x", i, got[i], want[i])
		}
	}
}

func TestHeaderSurfaceCustomMachine(t *testing.T) {
	defs := machine.Settings()
	def := defs[3]
	def.No = 0 // pretend custom: Surface must rebuild from declared fields
	def.Name = "custom-like-4"
	m, err := machine.New(def, 1234)
	if err != nil {
		t.Fatal(err)
	}
	h := HeaderFor(m, "dramdig", 1)
	info, pool, err := h.Surface()
	if err != nil {
		t.Fatal(err)
	}
	if info != m.SysInfo() {
		t.Fatalf("rebuilt sysinfo differs")
	}
	if pool.NumPages() != m.Pool().NumPages() || slices.Collect(pool.All())[0] != slices.Collect(m.Pool().All())[0] {
		t.Fatalf("rebuilt pool differs")
	}
}

// TestHeaderSurfaceRejectsRegistryDrift: when the registry definition of
// a paper machine no longer matches what the trace recorded, rebuilding
// the surface must fail clearly instead of producing a wrong pool that
// dies later in cryptic divergence errors.
func TestHeaderSurfaceRejectsRegistryDrift(t *testing.T) {
	h := sampleHeader(t)
	h.Machine.Fingerprint = strings.Repeat("ab", 32) // not No.4's hash
	if _, _, err := h.Surface(); err == nil || !strings.Contains(err.Error(), "no longer matches") {
		t.Fatalf("drifted registry not rejected: %v", err)
	}
}

func TestRecorderForwardsAndCaptures(t *testing.T) {
	m, err := machine.NewByNo(4, 42)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, HeaderFor(m, "test", 0))
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(m, w)

	if rec.SysInfo() != m.SysInfo() {
		t.Fatal("SysInfo not forwarded")
	}
	if rec.Pool() != m.Pool() {
		t.Fatal("Pool not forwarded")
	}
	pages := slices.Collect(m.Pool().All())
	a, b := pages[0], pages[len(pages)/2]
	before := rec.ClockNs()
	v := rec.MeasurePair(a, b, 64)
	if rec.ClockNs() <= before {
		t.Fatal("clock did not advance through recorder")
	}
	rec.AdvanceClock(100)
	rec.MeasurePair(b, a, 64)
	if rec.Samples() != 2 {
		t.Fatalf("recorded %d samples, want 2", rec.Samples())
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Samples[0]
	if s.A != a || s.B != b || s.Rounds != 64 || s.LatencyNs != v {
		t.Fatalf("captured %+v, want a=%x b=%x rounds=64 latency=%v", s, a, b, v)
	}
	if s.ElapsedNs <= 0 {
		t.Fatalf("captured elapsed %v, want > 0", s.ElapsedNs)
	}
}

func TestReplayerStrictDivergence(t *testing.T) {
	m, _ := machine.NewByNo(4, 42)
	info, pool := m.SysInfo(), m.Pool()
	samples := []Sample{
		{A: 100, B: 200, Rounds: 64, LatencyNs: 40, ElapsedNs: 10},
		{A: 300, B: 400, Rounds: 64, LatencyNs: 70, ElapsedNs: 10},
	}
	r := NewReplayerTarget(info, pool, samples, Strict)
	if v := r.MeasurePair(100, 200, 64); v != 40 {
		t.Fatalf("first sample = %v, want 40", v)
	}
	// Wrong pair: divergence recorded, 0 returned.
	if v := r.MeasurePair(999, 888, 64); v != 0 {
		t.Fatalf("diverged call returned %v, want 0", v)
	}
	var derr *DivergenceError
	if err := r.Err(); err == nil {
		t.Fatal("divergence not reported")
	} else if !errors.As(err, &derr) || derr.Call != 1 || derr.Reason != "mismatch" {
		t.Fatalf("wrong divergence: %v", err)
	}

	// Exhaustion is its own clear error.
	r2 := NewReplayerTarget(info, pool, samples[:1], Strict)
	r2.MeasurePair(100, 200, 64)
	r2.MeasurePair(100, 200, 64)
	if err := r2.Err(); err == nil || !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("exhaustion not reported: %v", err)
	}
}

func TestReplayerKeyed(t *testing.T) {
	m, _ := machine.NewByNo(4, 42)
	info, pool := m.SysInfo(), m.Pool()
	samples := []Sample{
		{A: 100, B: 200, Rounds: 64, LatencyNs: 40, ElapsedNs: 10},
		{A: 100, B: 200, Rounds: 64, LatencyNs: 42, ElapsedNs: 10},
		{A: 300, B: 400, Rounds: 64, LatencyNs: 70, ElapsedNs: 10},
	}
	r := NewReplayerTarget(info, pool, samples, Keyed)
	// Order-independent, symmetric pair, FIFO within a key.
	if v := r.MeasurePair(400, 300, 64); v != 70 {
		t.Fatalf("keyed lookup = %v, want 70", v)
	}
	if v := r.MeasurePair(100, 200, 64); v != 40 {
		t.Fatalf("keyed FIFO first = %v, want 40", v)
	}
	if v := r.MeasurePair(200, 100, 64); v != 42 {
		t.Fatalf("keyed FIFO second = %v, want 42", v)
	}
	// Exhausted key re-serves its last value.
	if v := r.MeasurePair(100, 200, 64); v != 42 {
		t.Fatalf("exhausted key = %v, want reuse of 42", v)
	}
	if r.Reused() != 1 {
		t.Fatalf("Reused = %d, want 1", r.Reused())
	}
	if r.Err() != nil {
		t.Fatalf("unexpected error: %v", r.Err())
	}
	// A never-recorded pair is a clear error.
	r.MeasurePair(1, 2, 64)
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "never recorded") {
		t.Fatalf("unknown pair not reported: %v", err)
	}
}
