package store

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dramdig/internal/storage"
)

// TestStoreTornTailReopen: a crash that tears the tail of the active
// segment loses no record or trace written before it; reopening drops
// the torn bytes and serves everything else.
func TestStoreTornTailReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if err := s.Put(testRecord(t, fp(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutTrace(fp(1), []byte("trace-one")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "segments", "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("\x62torn-partial")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen over a torn tail: %v", err)
	}
	defer re.Close()
	for i := 1; i <= 2; i++ {
		if _, ok, err := re.Get(fp(i)); err != nil || !ok {
			t.Fatalf("record %d lost across the torn tail: ok=%v err=%v", i, ok, err)
		}
	}
	if got, ok, err := re.GetTrace(fp(1)); err != nil || !ok || string(got) != "trace-one" {
		t.Fatalf("trace lost across the torn tail: %q ok=%v err=%v", got, ok, err)
	}
}

func TestStoreGCReapsOrphanedTraces(t *testing.T) {
	// Regression for the orphaned-trace leak: a trace written for a job
	// later evicted from the queue must be reclaimed, while a trace whose
	// job is still retained must never be.
	media(t, func(t *testing.T, dir string) {
		s, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		orphan, kept := fp(1), fp(2)
		if err := s.PutTrace(orphan, []byte("orphaned-trace-bytes")); err != nil {
			t.Fatal(err)
		}
		if err := s.PutTrace(kept, []byte("referenced-trace-bytes")); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(testRecord(t, orphan)); err != nil { // results are never orphan-reaped
			t.Fatal(err)
		}
		res, err := s.Sweep(context.Background(), func() map[string]bool {
			return map[string]bool{kept: true}
		})
		if err != nil {
			t.Fatalf("Sweep: %v", err)
		}
		if res.ReclaimedBlobs != 1 {
			t.Fatalf("reclaimed %d blobs, want 1", res.ReclaimedBlobs)
		}
		if _, ok, _ := s.GetTrace(orphan); ok {
			t.Fatal("orphaned trace survived GC")
		}
		if _, ok, _ := s.GetTrace(kept); !ok {
			t.Fatal("referenced trace reaped by GC")
		}
		if _, ok, _ := s.Get(orphan); !ok {
			t.Fatal("result record reaped by orphan GC")
		}
		if st := s.StatsSnapshot(); st.GCRuns != 1 || st.GCReclaimedBlobs != 1 {
			t.Fatalf("gc stats = %+v", st)
		}
	})
}

func TestStoreGCGracePeriod(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), GCGrace: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.PutTrace(fp(1), []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sweep(context.Background(), func() map[string]bool { return nil }); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.GetTrace(fp(1)); !ok {
		t.Fatal("trace inside the grace period reclaimed")
	}
}

func TestStoreCrashDuringGC(t *testing.T) {
	// Phase one of the two-phase delete (a durable tombstone) with a crash
	// before phase two (compaction): reopening must not resurrect the
	// reclaimed blob and must not lose any live one.
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutTrace(fp(1), []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutTrace(fp(2), []byte("alive")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Re-enact phase one directly against the segment keyspace, then
	// "crash" (close) without compacting.
	bs, err := storage.OpenBlobStore(storage.Options{Dir: filepath.Join(dir, "segments")})
	if err != nil {
		t.Fatal(err)
	}
	if err := bs.Delete("trace/" + fp(1)); err != nil {
		t.Fatal(err)
	}
	if err := bs.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after GC crash: %v", err)
	}
	defer re.Close()
	if _, ok, _ := re.GetTrace(fp(1)); ok {
		t.Fatal("tombstoned trace resurrected after GC crash")
	}
	if got, ok, _ := re.GetTrace(fp(2)); !ok || string(got) != "alive" {
		t.Fatal("live trace lost across GC crash")
	}
}

func TestStoreStartGCReapsInBackground(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.PutTrace(fp(1), []byte("orphan")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.StartGC(ctx, 5*time.Millisecond, func() map[string]bool { return nil })
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok, _ := s.GetTrace(fp(1)); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background GC never reaped the orphan")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStoreMissOpensNoFile: a miss is answered by the in-memory
// segment index alone. With the segment directory moved aside, any
// file a lookup opened would fail it; three misses still answer
// ok=false with no error.
func TestStoreMissOpensNoFile(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(testRecord(t, fp(1))); err != nil {
		t.Fatal(err)
	}
	segs := filepath.Join(dir, "segments")
	if err := os.Rename(segs, segs+".aside"); err != nil {
		t.Fatal(err)
	}
	defer os.Rename(segs+".aside", segs)
	for i := 0; i < 3; i++ {
		if _, ok, err := s.Get(fp(9)); ok || err != nil {
			t.Fatalf("lookup %d: ok=%v err=%v", i, ok, err)
		}
	}
	if n := s.StatsSnapshot().NegativeLookups; n != 3 {
		t.Fatalf("negative lookups = %d, want 3", n)
	}
}

func TestStoreDiskBoundEviction(t *testing.T) {
	media(t, func(t *testing.T, dir string) {
		s, err := Open(Config{Dir: dir, MaxBytes: 32 << 10})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		payload := make([]byte, 1024)
		for i := 0; i < 100; i++ {
			if err := s.PutTrace(fmt.Sprintf("%064x", 0x1000+i), payload); err != nil {
				t.Fatal(err)
			}
		}
		st := s.StatsSnapshot()
		if st.DiskBytes > 32<<10 {
			t.Fatalf("disk bytes %d over the bound", st.DiskBytes)
		}
		if st.GCEvicted == 0 {
			t.Fatal("no evictions under the bound")
		}
	})
}
