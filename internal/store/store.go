// Package store is a content-addressed cache of reverse-engineering
// results, keyed by machine-definition fingerprints (see
// machine.Definition.Fingerprint). It layers an in-memory LRU front over
// one segment keyspace (internal/storage), and deduplicates concurrent
// computations for the same key with single-flight: when many campaign
// jobs or daemon requests ask for the same machine configuration at
// once, the pipeline runs exactly once and every caller shares the
// outcome.
//
// Results and recorded timing traces share that content-addressed
// keyspace: "result/<fp>" holds the record JSON, "trace/<fp>" the trace
// stream. With a directory the segments are append-only files under
// <dir>/segments and persist across processes; without one the same
// segments live in memory. Segments are the only layout read: flat
// <fp>.json and <fp>.trace files left in a directory by releases before
// the segment store are neither read nor removed. A background GC
// (StartGC) reclaims orphaned traces, enforces the optional size bound,
// and compacts dead segments, in either medium.
package store

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"dramdig/internal/mapping"
	"dramdig/internal/metrics"
	"dramdig/internal/obs"
	"dramdig/internal/storage"
)

// Record is one cached result: the recovered mapping plus the run
// statistics worth keeping.
type Record struct {
	// Fingerprint is the machine-definition hash the record is keyed by.
	Fingerprint string `json:"fingerprint"`
	// MachineName labels the machine ("No.3", "gen-wide-MT41K256M8").
	MachineName string `json:"machine"`
	// Mapping is the recovered mapping, in the paper's JSON notation;
	// MappingFingerprint is its content hash.
	Mapping            *mapping.Mapping `json:"mapping"`
	MappingFingerprint string           `json:"mapping_fingerprint"`
	// Match records whether the mapping matched the simulator's ground
	// truth at compute time.
	Match bool `json:"match"`
	// SimSeconds and Measurements are the run's cost.
	SimSeconds   float64 `json:"sim_seconds"`
	Measurements uint64  `json:"measurements"`
	// CreatedUnix is the wall time the record was stored.
	CreatedUnix int64 `json:"created_unix"`
}

func (r *Record) validate() error {
	if !ValidFingerprint(r.Fingerprint) {
		return fmt.Errorf("store: bad fingerprint %q", r.Fingerprint)
	}
	if r.Mapping == nil {
		return fmt.Errorf("store: record %s has no mapping", r.Fingerprint)
	}
	return nil
}

// ValidFingerprint reports whether s looks like one of our hex digests —
// the daemon also uses this to reject path-traversal attempts before a
// fingerprint reaches the filesystem.
func ValidFingerprint(s string) bool {
	if len(s) != 64 {
		return false
	}
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Blob-keyspace prefixes: results and traces share one content-addressed
// namespace inside the segment files.
const (
	resultPrefix = "result/"
	tracePrefix  = "trace/"
)

func resultKey(fp string) string { return resultPrefix + fp }
func traceKey(fp string) string  { return tracePrefix + fp }

// Config tunes a store.
type Config struct {
	// Dir persists results and traces in the segments under
	// Dir/segments; empty keeps the same segments in memory.
	Dir string
	// MaxBytes bounds the segment bytes, on disk or in memory; 0 means
	// unbounded. Past the bound, least-recently-used blobs are evicted
	// and dead segments compacted.
	MaxBytes int64
	// GCGrace is how long a blob is exempt from orphan reclamation after
	// being written (or recovered from disk), so GC never races a trace
	// that is still being linked to its job. 0 means no grace.
	GCGrace time.Duration
}

// Stats are cumulative store counters.
type Stats struct {
	// Entries is the current in-memory count.
	Entries int `json:"entries"`
	// Hits counts memory or disk gets that found a record; Misses the
	// rest. Computes counts executed compute functions; single-flight
	// followers share the leader's compute and do not increment it.
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Computes uint64 `json:"computes"`
	// PersistErrors counts segment writes that failed after a successful
	// compute; the record is still served from the LRU (GetOrCompute
	// treats persistence as best-effort).
	PersistErrors uint64 `json:"persist_errors"`
	// NegativeLookups counts public Get calls that found nothing in any
	// tier — requests for fingerprints the store has never seen (distinct
	// from GetOrCompute misses, which turn into computes).
	NegativeLookups uint64 `json:"negative_lookups"`
	// Segment-keyspace shape: live blobs, segments, and their total
	// bytes (files with a directory, memory without one).
	DiskBlobs int   `json:"disk_blobs"`
	DiskBytes int64 `json:"disk_bytes"`
	Segments  int   `json:"segments"`
	// GC activity since open, read from the keyspace's counters:
	// completed sweeps, blobs/bytes reclaimed as orphans, and blobs
	// evicted to satisfy MaxBytes.
	GCRuns           uint64 `json:"gc_runs"`
	GCReclaimedBlobs uint64 `json:"gc_reclaimed_blobs"`
	GCReclaimedBytes uint64 `json:"gc_reclaimed_bytes"`
	GCEvicted        uint64 `json:"gc_evicted"`
}

// Store is safe for concurrent use.
type Store struct {
	mu     sync.Mutex
	ll     *list.List               // front = most recently used
	items  map[string]*list.Element // value: *Record
	flight map[string]*flightCall
	stats  Stats

	// One segment keyspace for results and traces, on disk or in memory.
	blob    *storage.BlobStore
	gcGrace time.Duration

	// Segment read/write latency histograms; nil (no-op) until
	// RegisterMetrics.
	diskRead  *metrics.Histogram
	diskWrite *metrics.Histogram
}

type flightCall struct {
	done chan struct{}
	rec  *Record
	err  error
}

// lruEntries caps the in-memory LRU front of decoded records. The
// segments are unaffected by eviction: evicted records reload from them.
const lruEntries = 128

// Open creates a store; with Config.Dir set, records persist across
// processes (loaded lazily on Get misses).
func Open(cfg Config) (*Store, error) {
	segDir := ""
	if cfg.Dir != "" {
		segDir = filepath.Join(cfg.Dir, "segments")
	}
	bs, err := storage.OpenBlobStore(storage.Options{Dir: segDir, MaxBytes: cfg.MaxBytes})
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{
		ll:      list.New(),
		items:   make(map[string]*list.Element),
		flight:  make(map[string]*flightCall),
		blob:    bs,
		gcGrace: cfg.GCGrace,
	}, nil
}

// Get returns the record for the fingerprint, consulting the LRU then
// the segments. Returned records are shared — treat them as read-only.
func (s *Store) Get(fp string) (*Record, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, err := s.getLocked(fp)
	if err != nil {
		return nil, false, err
	}
	if rec == nil {
		s.stats.NegativeLookups++
	}
	return rec, rec != nil, nil
}

// shortFP truncates a fingerprint for span attributes — enough hex to
// grep the cache directory, without 64-char attribute values.
func shortFP(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

// Put inserts (or replaces) a record and writes it to the segments.
func (s *Store) Put(rec *Record) error {
	if err := rec.validate(); err != nil {
		return err
	}
	if rec.CreatedUnix == 0 {
		rec.CreatedUnix = time.Now().Unix()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.putLocked(rec, true)
}

// GetOrCompute returns the cached record for the fingerprint or runs
// compute to produce it. Concurrent calls for the same fingerprint are
// deduplicated: one caller computes, the rest wait and share the result.
// Compute errors are returned to every waiter and are not cached. The
// segment write is best-effort here: if it fails the record is still
// cached in the LRU and shared with every waiter, and the failure shows
// up in Stats.PersistErrors (use Put for write-or-error semantics).
//
// With a tracer in ctx the lookup records a store.read span (hit
// "true", "false", or "flight" when another caller's compute was
// joined) and a successful compute records a store.persist span around
// the cache write. The compute callback receives no context by design —
// callers close over theirs, and the pipeline's own phase spans parent
// correctly because compute runs on the calling goroutine.
func (s *Store) GetOrCompute(ctx context.Context, fp string, compute func() (*Record, error)) (*Record, error) {
	_, rsp := obs.Start(ctx, "store.read", obs.KV("fp", shortFP(fp)))
	s.mu.Lock()
	rec, err := s.getLocked(fp)
	if err != nil {
		s.mu.Unlock()
		rsp.SetError(err)
		rsp.End()
		return nil, err
	}
	if rec != nil {
		s.mu.Unlock()
		rsp.SetAttr("hit", "true")
		rsp.End()
		return rec, nil
	}
	if c, ok := s.flight[fp]; ok {
		s.mu.Unlock()
		rsp.SetAttr("hit", "flight")
		rsp.End()
		<-c.done
		return c.rec, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	s.flight[fp] = c
	s.stats.Computes++
	s.mu.Unlock()
	rsp.SetAttr("hit", "false")
	rsp.End()

	rec, err = compute()
	if err == nil && rec != nil {
		if rec.Fingerprint == "" {
			rec.Fingerprint = fp
		}
		if rec.CreatedUnix == 0 {
			rec.CreatedUnix = time.Now().Unix()
		}
		if rec.Fingerprint != fp {
			rec, err = nil, fmt.Errorf("store: compute for %s returned record keyed %s", fp, rec.Fingerprint)
		} else if verr := rec.validate(); verr != nil {
			rec, err = nil, verr
		}
	} else if err == nil {
		err = fmt.Errorf("store: compute for %s returned neither record nor error", fp)
	}

	s.mu.Lock()
	delete(s.flight, fp)
	if err == nil {
		_, psp := obs.Start(ctx, "store.persist", obs.KV("fp", shortFP(fp)))
		perr := s.putLocked(rec, true)
		if perr != nil {
			s.stats.PersistErrors++
			// Persistence is best-effort here: the span carries the error,
			// the call does not.
			psp.SetError(perr)
		}
		psp.End()
	}
	s.mu.Unlock()

	c.rec, c.err = rec, err
	close(c.done)
	return rec, err
}

// StatsSnapshot returns the current counters.
func (s *Store) StatsSnapshot() Stats {
	s.mu.Lock()
	st := s.stats
	st.Entries = s.ll.Len()
	s.mu.Unlock()
	st.DiskBlobs = s.blob.Len()
	st.DiskBytes = s.blob.DiskBytes()
	st.Segments = s.blob.Segments()
	gc := s.blob.Stats()
	st.GCRuns = gc.Sweeps
	st.GCReclaimedBlobs = gc.ReclaimedBlobs
	st.GCReclaimedBytes = gc.ReclaimedBytes
	st.GCEvicted = gc.Evicted
	return st
}

// RegisterMetrics wires the store into a metrics registry: cache-outcome
// counters read live from StatsSnapshot, the current LRU population, the
// segment keyspace's size and GC activity, and segment read/write
// latency histograms. A nil registry is a no-op.
func (s *Store) RegisterMetrics(r *metrics.Registry) {
	if r == nil {
		return
	}
	r.CounterFunc("dramdig_store_hits_total", "Lookups served from memory or disk.", nil,
		func() float64 { return float64(s.StatsSnapshot().Hits) })
	r.CounterFunc("dramdig_store_misses_total", "Lookups that found no record.", nil,
		func() float64 { return float64(s.StatsSnapshot().Misses) })
	r.CounterFunc("dramdig_store_computes_total", "Pipeline computes executed (single-flight leaders).", nil,
		func() float64 { return float64(s.StatsSnapshot().Computes) })
	r.CounterFunc("dramdig_store_persist_errors_total", "Best-effort disk writes that failed after a compute.", nil,
		func() float64 { return float64(s.StatsSnapshot().PersistErrors) })
	r.CounterFunc("dramdig_store_negative_lookups_total", "Get calls for fingerprints the store has never seen.", nil,
		func() float64 { return float64(s.StatsSnapshot().NegativeLookups) })
	r.GaugeFunc("dramdig_store_entries", "Records in the in-memory LRU tier.", nil,
		func() float64 { return float64(s.Len()) })
	r.GaugeFunc("dramdig_store_disk_bytes", "Total bytes in the store's segments, in files or in memory.", nil,
		func() float64 { return float64(s.StatsSnapshot().DiskBytes) })
	r.GaugeFunc("dramdig_store_disk_blobs", "Live blobs (results + traces) in the store's segments.", nil,
		func() float64 { return float64(s.StatsSnapshot().DiskBlobs) })
	r.GaugeFunc("dramdig_store_segments", "Segments in the store's keyspace.", nil,
		func() float64 { return float64(s.StatsSnapshot().Segments) })
	r.CounterFunc("dramdig_store_gc_runs_total", "Completed garbage-collection sweeps.", nil,
		func() float64 { return float64(s.StatsSnapshot().GCRuns) })
	r.CounterFunc("dramdig_store_gc_reclaimed_blobs_total", "Orphaned blobs reclaimed by GC.", nil,
		func() float64 { return float64(s.StatsSnapshot().GCReclaimedBlobs) })
	r.CounterFunc("dramdig_store_gc_reclaimed_bytes_total", "Payload bytes of orphaned blobs reclaimed by GC.", nil,
		func() float64 { return float64(s.StatsSnapshot().GCReclaimedBytes) })
	r.CounterFunc("dramdig_store_gc_evicted_total", "Blobs evicted to keep the segments under -store-max-bytes.", nil,
		func() float64 { return float64(s.StatsSnapshot().GCEvicted) })
	diskBuckets := metrics.ExpBuckets(10e-6, 4, 10) // 10µs .. ~2.6s
	s.mu.Lock()
	s.diskRead = r.Histogram("dramdig_store_disk_read_seconds",
		"Segment record read latency.", diskBuckets, nil)
	s.diskWrite = r.Histogram("dramdig_store_disk_write_seconds",
		"Segment record write latency (append).", diskBuckets, nil)
	s.mu.Unlock()
}

// Len returns the in-memory entry count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// Close releases the segment keyspace (fsyncing the active segment file
// when the store has a directory). The store must not be used
// afterwards.
func (s *Store) Close() error {
	return s.blob.Close()
}

// --- result tier -------------------------------------------------------

// getLocked consults the LRU, then the segment keyspace, promoting what
// it finds. A key the segment index does not hold misses without
// reading any segment.
func (s *Store) getLocked(fp string) (*Record, error) {
	if el, ok := s.items[fp]; ok {
		s.ll.MoveToFront(el)
		s.stats.Hits++
		return el.Value.(*Record), nil
	}
	if ValidFingerprint(fp) {
		readStart := time.Now()
		data, ok, err := s.blob.Get(resultKey(fp))
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		if ok {
			// Only successful reads are observed: index misses return in
			// microseconds and would skew the latency distribution toward
			// the low buckets.
			s.diskRead.Observe(time.Since(readStart).Seconds())
			var rec Record
			if uerr := json.Unmarshal(data, &rec); uerr != nil {
				return nil, fmt.Errorf("store: corrupt record %s: %w", fp, uerr)
			}
			if rec.Fingerprint != fp {
				return nil, fmt.Errorf("store: record file %s is keyed %s inside", fp, rec.Fingerprint)
			}
			if verr := rec.validate(); verr != nil {
				return nil, fmt.Errorf("store: corrupt record %s: %w", fp, verr)
			}
			s.stats.Hits++
			// Promote to the LRU only: the record is already in the
			// segments.
			if perr := s.putLocked(&rec, false); perr != nil {
				return nil, perr
			}
			return &rec, nil
		}
	}
	s.stats.Misses++
	return nil, nil
}

// putLocked inserts into the LRU first — the LRU stays coherent even
// when a segment write fails — then persists into the segment keyspace.
// Records are small (~1 KiB of JSON), so holding the mutex
// across the append is a deliberate simplicity tradeoff; the expensive
// pipeline computes already run outside the lock.
func (s *Store) putLocked(rec *Record, persist bool) error {
	if el, ok := s.items[rec.Fingerprint]; ok {
		el.Value = rec
		s.ll.MoveToFront(el)
	} else {
		s.items[rec.Fingerprint] = s.ll.PushFront(rec)
		for s.ll.Len() > lruEntries {
			oldest := s.ll.Back()
			s.ll.Remove(oldest)
			delete(s.items, oldest.Value.(*Record).Fingerprint)
		}
	}
	if persist {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return fmt.Errorf("store: encode %s: %w", rec.Fingerprint, err)
		}
		writeStart := time.Now()
		if err := s.blob.Put(resultKey(rec.Fingerprint), data); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		s.diskWrite.Observe(time.Since(writeStart).Seconds())
	}
	return nil
}

// --- garbage collection ------------------------------------------------

// Sweep runs one GC pass: traces whose fingerprint the referenced
// callback does not vouch for are reclaimed (once past Config.GCGrace),
// the size bound is enforced, and dead segments are compacted. Results
// are never orphan-reclaimed — only the size bound evicts them. A nil
// referenced skips orphan reclamation.
func (s *Store) Sweep(ctx context.Context, referenced func() map[string]bool) (storage.SweepResult, error) {
	var reclaim func(key string, age time.Duration) bool
	if referenced != nil {
		refs := referenced()
		reclaim = func(key string, age time.Duration) bool {
			fp, ok := strings.CutPrefix(key, tracePrefix)
			if !ok {
				return false
			}
			return age >= s.gcGrace && !refs[fp]
		}
	}
	return s.blob.Sweep(ctx, reclaim)
}

// StartGC launches a background goroutine sweeping every interval until
// ctx is canceled. referenced returns the set of machine fingerprints
// whose artifacts must survive (typically: every job the daemon's queue
// still retains); it is called once per sweep.
func (s *Store) StartGC(ctx context.Context, interval time.Duration, referenced func() map[string]bool) {
	if interval <= 0 {
		interval = time.Minute
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				s.Sweep(ctx, referenced) // errors surface via gc span + counters
			}
		}
	}()
}

// --- trace tier --------------------------------------------------------

// TraceWriter returns a sink that stores the bytes written to it as the
// fingerprint's trace when closed. The trace appears under its content
// address only on Close — a crashed recording never leaves a half trace
// visible.
func (s *Store) TraceWriter(fp string) (io.WriteCloser, error) {
	if !ValidFingerprint(fp) {
		return nil, fmt.Errorf("store: bad fingerprint %q", fp)
	}
	return &traceWriter{s: s, fp: fp}, nil
}

// PutTrace stores an already-encoded trace for the fingerprint.
func (s *Store) PutTrace(fp string, data []byte) error {
	w, err := s.TraceWriter(fp)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// putTraceBytes commits a completed trace into the segment keyspace.
func (s *Store) putTraceBytes(fp string, data []byte) error {
	s.mu.Lock()
	writeStart := time.Now()
	err := s.blob.Put(traceKey(fp), data)
	if err == nil {
		s.diskWrite.Observe(time.Since(writeStart).Seconds())
	}
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// GetTrace returns the stored trace bytes for the fingerprint.
func (s *Store) GetTrace(fp string) ([]byte, bool, error) {
	if !ValidFingerprint(fp) {
		return nil, false, fmt.Errorf("store: bad fingerprint %q", fp)
	}
	data, ok, err := s.blob.Get(traceKey(fp))
	if err != nil {
		return nil, false, fmt.Errorf("store: %w", err)
	}
	return data, ok, nil
}

// StatTrace reports whether a trace exists for the fingerprint and its
// size in bytes.
func (s *Store) StatTrace(fp string) (int64, bool) {
	if !ValidFingerprint(fp) {
		return 0, false
	}
	return s.blob.Stat(traceKey(fp))
}

// traceWriter buffers the trace and commits it under the content address
// on Close.
type traceWriter struct {
	s      *Store
	fp     string
	buf    bytes.Buffer
	closed bool
}

func (w *traceWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }

func (w *traceWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	return w.s.putTraceBytes(w.fp, w.buf.Bytes())
}
