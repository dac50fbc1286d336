package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"strings"

	"dramdig/internal/machine"
	"dramdig/internal/metrics"
	"dramdig/internal/storage"
)

func testRecord(t testing.TB, fp string) *Record {
	t.Helper()
	def, err := machine.ByNo(1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(def, 1)
	if err != nil {
		t.Fatal(err)
	}
	truth := m.Truth()
	return &Record{
		Fingerprint:        fp,
		MachineName:        def.Name,
		Mapping:            truth,
		MappingFingerprint: truth.Fingerprint(),
		Match:              true,
		SimSeconds:         12.5,
		Measurements:       100_000,
	}
}

// fp returns a syntactically valid fake fingerprint.
func fp(i int) string {
	return fmt.Sprintf("%064x", i)
}

// media runs fn once with a store directory and once without one, so a
// test covers the segments on disk and in memory alike.
func media(t *testing.T, fn func(t *testing.T, dir string)) {
	t.Run("disk", func(t *testing.T) { fn(t, t.TempDir()) })
	t.Run("memory", func(t *testing.T) { fn(t, "") })
}

func TestValidFingerprint(t *testing.T) {
	if !ValidFingerprint(fp(7)) {
		t.Error("rejected a valid digest")
	}
	for _, bad := range []string{"", "short", fp(7)[:63] + "G", "../../../../etc/passwd"} {
		if ValidFingerprint(bad) {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestStorePutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord(t, fp(1))
	if err := st.Put(rec); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Get(fp(1))
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if !got.Mapping.EquivalentTo(rec.Mapping) || got.MappingFingerprint != rec.MappingFingerprint {
		t.Error("record changed through the store")
	}

	// A fresh store over the same directory must serve the record from
	// its JSON file.
	st2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got2, ok, err := st2.Get(fp(1))
	if err != nil || !ok {
		t.Fatalf("disk get: ok=%v err=%v", ok, err)
	}
	if !got2.Mapping.EquivalentTo(rec.Mapping) || got2.SimSeconds != rec.SimSeconds {
		t.Error("disk round-trip changed the record")
	}
	if _, ok, _ := st2.Get(fp(99)); ok {
		t.Error("phantom record")
	}
}

func TestStoreRejectsBadRecords(t *testing.T) {
	st, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(&Record{Fingerprint: "nope"}); err == nil {
		t.Error("accepted invalid fingerprint")
	}
	if err := st.Put(&Record{Fingerprint: fp(1)}); err == nil {
		t.Error("accepted record without mapping")
	}
}

func TestStoreLRUEviction(t *testing.T) {
	media(t, func(t *testing.T, dir string) {
		st, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		for i := 1; i <= lruEntries+1; i++ {
			if err := st.Put(testRecord(t, fp(i))); err != nil {
				t.Fatal(err)
			}
		}
		if st.Len() != lruEntries {
			t.Fatalf("len = %d, want %d", st.Len(), lruEntries)
		}
		// fp(1) was evicted from the LRU but must reload from the segments.
		if _, ok, err := st.Get(fp(1)); err != nil || !ok {
			t.Errorf("evicted record lost entirely: ok=%v err=%v", ok, err)
		}
		if st.Len() != lruEntries {
			t.Errorf("reload grew the LRU past its cap: %d", st.Len())
		}
	})
}

// TestStoreMemoryKeepsEveryResult: without a directory the segments
// still hold every result, so after a campaign's 256 jobs (the campaign
// job cap) have pushed the first results out of the LRU, Get serves
// them and GetOrCompute does not compute them again — a requeued job
// resumes from the store as it does with a directory.
func TestStoreMemoryKeepsEveryResult(t *testing.T) {
	st, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 256
	base := testRecord(t, fp(0))
	computes := 0
	compute := func(i int) func() (*Record, error) {
		return func() (*Record, error) {
			computes++
			r := *base
			r.Fingerprint = fp(i)
			return &r, nil
		}
	}
	ctx := context.Background()
	for i := 0; i < jobs; i++ {
		if _, err := st.GetOrCompute(ctx, fp(i), compute(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, err := st.Get(fp(0)); err != nil || !ok {
		t.Fatalf("first result lost: ok=%v err=%v", ok, err)
	}
	if _, err := st.GetOrCompute(ctx, fp(1), compute(1)); err != nil {
		t.Fatal(err)
	}
	if computes != jobs {
		t.Fatalf("%d computes for %d jobs", computes, jobs)
	}
}

// TestStoreSingleFlight is the concurrency contract: many goroutines
// requesting one fingerprint trigger exactly one compute, and everyone
// shares its outcome. Run with -race.
func TestStoreSingleFlight(t *testing.T) {
	st, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var computes int32
	rec := testRecord(t, fp(5))

	const goroutines = 32
	var wg sync.WaitGroup
	results := make([]*Record, goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = st.GetOrCompute(context.Background(), fp(5), func() (*Record, error) {
				atomic.AddInt32(&computes, 1)
				time.Sleep(20 * time.Millisecond) // hold the flight open
				return rec, nil
			})
		}(g)
	}
	wg.Wait()
	if computes != 1 {
		t.Fatalf("compute ran %d times, want 1", computes)
	}
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if results[g] != rec {
			t.Errorf("goroutine %d got a different record", g)
		}
	}
	// Afterwards it's a plain cache hit.
	if _, err := st.GetOrCompute(context.Background(), fp(5), func() (*Record, error) {
		t.Error("compute ran on a warm cache")
		return nil, errors.New("unreachable")
	}); err != nil {
		t.Fatal(err)
	}
	stats := st.StatsSnapshot()
	if stats.Computes != 1 || stats.Entries != 1 {
		t.Errorf("stats = %+v, want 1 compute / 1 entry", stats)
	}
}

// TestStoreSingleFlightConcurrentKeys: distinct keys compute
// independently and concurrently without cross-talk. Run with -race.
func TestStoreSingleFlightConcurrentKeys(t *testing.T) {
	st, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	const keys, per = 8, 8
	var computes int32
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		rec := testRecord(t, fp(100+k))
		for g := 0; g < per; g++ {
			wg.Add(1)
			go func(k int, rec *Record) {
				defer wg.Done()
				got, err := st.GetOrCompute(context.Background(), fp(100+k), func() (*Record, error) {
					atomic.AddInt32(&computes, 1)
					time.Sleep(5 * time.Millisecond)
					return rec, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if got.Fingerprint != fp(100+k) {
					t.Errorf("key %d served record %s", k, got.Fingerprint)
				}
			}(k, rec)
		}
	}
	wg.Wait()
	if computes != keys {
		t.Errorf("computes = %d, want %d (one per key)", computes, keys)
	}
}

func TestStoreComputeErrorNotCached(t *testing.T) {
	st, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("transient")
	if _, err := st.GetOrCompute(context.Background(), fp(9), func() (*Record, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the compute error", err)
	}
	// The failure must not poison the key.
	rec := testRecord(t, fp(9))
	got, err := st.GetOrCompute(context.Background(), fp(9), func() (*Record, error) { return rec, nil })
	if err != nil || got != rec {
		t.Fatalf("retry after error: got %v err %v", got, err)
	}
}

// putRawResult writes data under fp's result key straight into the
// segments a store over dir reads, past Put's validation.
func putRawResult(t *testing.T, dir, fp string, data []byte) {
	t.Helper()
	bs, err := storage.OpenBlobStore(storage.Options{Dir: filepath.Join(dir, "segments")})
	if err != nil {
		t.Fatal(err)
	}
	if err := bs.Put(resultKey(fp), data); err != nil {
		t.Fatal(err)
	}
	if err := bs.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreRejectsCorruptDiskRecord(t *testing.T) {
	dir := t.TempDir()
	putRawResult(t, dir, fp(3), []byte("{not json"))
	st, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Get(fp(3)); err == nil {
		t.Error("corrupt record served without error")
	}
}

func TestStoreComputeKeyMismatch(t *testing.T) {
	st, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.GetOrCompute(context.Background(), fp(1), func() (*Record, error) {
		return testRecord(t, fp(2)), nil
	}); err == nil {
		t.Error("mismatched record key accepted")
	}
}

func TestStoreRejectsMiskeyedDiskRecord(t *testing.T) {
	dir := t.TempDir()
	// A record whose content is keyed by a different fingerprint than
	// the address it is stored under.
	data, err := json.Marshal(testRecord(t, fp(1)))
	if err != nil {
		t.Fatal(err)
	}
	putRawResult(t, dir, fp(2), data)
	st, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Get(fp(2)); err == nil {
		t.Error("mis-keyed disk record served without error")
	}
}

func TestStoreTraceTierDisk(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	key := fp(3)
	if _, ok, _ := s.GetTrace(key); ok {
		t.Fatal("trace present before put")
	}
	if _, ok := s.StatTrace(key); ok {
		t.Fatal("stat present before put")
	}
	payload := []byte("DRTR-pretend-trace-bytes")
	w, err := s.TraceWriter(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	// Atomicity: nothing at the content address until Close.
	if _, ok := s.StatTrace(key); ok {
		t.Fatal("trace visible before Close")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.GetTrace(key)
	if err != nil || !ok {
		t.Fatalf("GetTrace: ok=%v err=%v", ok, err)
	}
	if string(got) != string(payload) {
		t.Fatalf("trace bytes corrupted: %q", got)
	}
	if n, ok := s.StatTrace(key); !ok || n != int64(len(payload)) {
		t.Fatalf("StatTrace = %d,%v", n, ok)
	}
	// Traces live inside the shared segment keyspace, so the store
	// directory holds nothing but segments/.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "segments" {
		t.Fatalf("store dir holds %v, want only segments/", entries)
	}

	// A second store over the same directory sees the trace.
	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s2.GetTrace(key); !ok {
		t.Fatal("trace not shared across store instances")
	}

	if _, err := s.TraceWriter("../evil"); err == nil {
		t.Fatal("TraceWriter accepted a malformed fingerprint")
	}
	if _, _, err := s.GetTrace("../evil"); err == nil {
		t.Fatal("GetTrace accepted a malformed fingerprint")
	}
}

func TestStoreTraceTierMemory(t *testing.T) {
	media(t, func(t *testing.T, dir string) {
		s, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for i := 1; i <= lruEntries+1; i++ {
			if err := s.PutTrace(fp(i), []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		// The LRU cap bounds decoded records, not traces: all of them remain.
		for i := 1; i <= lruEntries+1; i++ {
			data, ok, err := s.GetTrace(fp(i))
			if err != nil || !ok || len(data) != 1 || data[0] != byte(i) {
				t.Fatalf("trace %d: ok=%v err=%v data=%v", i, ok, err, data)
			}
		}
		if err := s.PutTrace(fp(3), []byte{9}); err != nil {
			t.Fatal(err)
		}
		if data, ok, _ := s.GetTrace(fp(3)); !ok || data[0] != 9 {
			t.Fatal("overwrite lost")
		}
		if _, ok, _ := s.GetTrace(fp(2)); !ok {
			t.Fatal("overwrite evicted a sibling")
		}
	})
}

// TestStoreMetrics: RegisterMetrics exposes cache-outcome counters, the
// LRU population gauge and disk-tier latency histograms.
func TestStoreMetrics(t *testing.T) {
	r := metrics.NewRegistry()
	s, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s.RegisterMetrics(r)

	if err := s.Put(testRecord(t, fp(1))); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(fp(1)); err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if _, ok, err := s.Get(fp(2)); err != nil || ok {
		t.Fatalf("negative get: ok=%v err=%v", ok, err)
	}

	st := s.StatsSnapshot()
	if st.Hits != 1 || st.NegativeLookups != 1 {
		t.Fatalf("stats: %+v", st)
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"dramdig_store_hits_total 1",
		"dramdig_store_negative_lookups_total 1",
		"dramdig_store_entries 1",
		"dramdig_store_disk_write_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics render missing %q:\n%s", want, out)
		}
	}
}
