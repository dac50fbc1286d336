package store

import (
	"bytes"
	"context"
	"fmt"
	"testing"
)

// BenchmarkPutSegment measures the persist path: one Put per distinct
// fingerprint, appended to the active segment.
func BenchmarkPutSegment(b *testing.B) {
	st, err := Open(Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	rec := testRecord(b, fp(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := *rec
		r.Fingerprint = fp(i)
		if err := st.Put(&r); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkReadCached measures a warm Get: the record is in the memory
// LRU, so no segment read happens. Every repeat
// GET /v1/mappings/{fp} pays this.
func BenchmarkReadCached(b *testing.B) {
	st, err := Open(Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	rec := testRecord(b, fp(1))
	if err := st.Put(rec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := st.Get(rec.Fingerprint); err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reads/s")
}

// BenchmarkGCSweep measures a GC pass over a store holding orphaned
// traces: every sweep tombstones the batch, fsyncs once, and compacts
// the dead segments.
func BenchmarkGCSweep(b *testing.B) {
	const orphans = 64
	st, err := Open(Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	payload := bytes.Repeat([]byte("t"), 4096)
	none := func() map[string]bool { return nil }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < orphans; j++ {
			if err := st.PutTrace(fmt.Sprintf("%056x%08x", i, j), payload); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		res, err := st.Sweep(context.Background(), none)
		if err != nil {
			b.Fatal(err)
		}
		if res.ReclaimedBlobs != orphans {
			b.Fatalf("sweep reclaimed %d of %d orphans", res.ReclaimedBlobs, orphans)
		}
	}
	b.ReportMetric(float64(orphans*b.N)/b.Elapsed().Seconds(), "blobs/s")
}
