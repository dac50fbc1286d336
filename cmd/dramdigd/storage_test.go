package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dramdig/internal/machine"
	"dramdig/internal/queue"
	"dramdig/internal/store"
)

func storeTestRecord(t *testing.T, fp string) *store.Record {
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
	return &store.Record{
		Fingerprint:        fp,
		MachineName:        def.Name,
		Mapping:            truth,
		MappingFingerprint: truth.Fingerprint(),
		Match:              true,
		SimSeconds:         1.5,
		Measurements:       1000,
	}
}

func TestMappingETagAndConditionalGet(t *testing.T) {
	srv := newTestServer(t)
	fp := fmt.Sprintf("%064x", 0xe7a6)
	if err := srv.st.Put(storeTestRecord(t, fp)); err != nil {
		t.Fatal(err)
	}
	etag := `"` + fp + `"`

	r := httptest.NewRequest("GET", "/v1/mappings/"+fp, nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("GET = %d", w.Code)
	}
	if got := w.Header().Get("ETag"); got != etag {
		t.Fatalf("ETag = %q, want %q", got, etag)
	}
	if cc := w.Header().Get("Cache-Control"); cc == "" {
		t.Fatal("no Cache-Control on an immutable resource")
	}

	// Revalidation with the fingerprint's tag short-circuits to 304.
	for _, inm := range []string{etag, "W/" + etag, `"other", ` + etag, "*"} {
		r = httptest.NewRequest("GET", "/v1/mappings/"+fp, nil)
		r.Header.Set("If-None-Match", inm)
		w = httptest.NewRecorder()
		srv.ServeHTTP(w, r)
		if w.Code != http.StatusNotModified {
			t.Fatalf("If-None-Match %q = %d, want 304", inm, w.Code)
		}
		if w.Body.Len() != 0 {
			t.Fatalf("304 carried a body: %q", w.Body.String())
		}
		if got := w.Header().Get("ETag"); got != etag {
			t.Fatalf("304 ETag = %q", got)
		}
	}

	// A non-matching tag gets the full representation.
	r = httptest.NewRequest("GET", "/v1/mappings/"+fp, nil)
	r.Header.Set("If-None-Match", `"deadbeef"`)
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("mismatched If-None-Match = %d, want 200", w.Code)
	}
}

// TestMappingRepeatedMissesHitNegativeCache: repeated lookups of a
// fingerprint the store never saw each answer 404; the in-memory
// segment index answers them without touching the disk.
func TestMappingRepeatedMissesHitNegativeCache(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	q, err := queue.Open(queue.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	srv := newServer(ctx, st, q, serverConfig{workers: 1, maxRunning: defaultMaxRunning})

	missing := fmt.Sprintf("%064x", 0x404)
	for i := 0; i < 3; i++ {
		r := httptest.NewRequest("GET", "/v1/mappings/"+missing, nil)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, r)
		if w.Code != http.StatusNotFound {
			t.Fatalf("miss %d = %d", i, w.Code)
		}
	}
}

func TestDaemonGCReapsOrphanedTraces(t *testing.T) {
	// End-to-end orphan reclamation: a trace whose job the queue no
	// longer retains disappears; a trace referenced by a retained job
	// survives. KeepTerminal 1 forces eviction of the older job.
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	q, err := queue.Open(queue.Config{KeepTerminal: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	srv := newServer(ctx, st, q, serverConfig{
		workers:    1,
		maxRunning: defaultMaxRunning,
		tracing:    true,
		gcInterval: 10 * time.Millisecond,
	})

	// Two campaigns over distinct machines; finishing the second evicts
	// the first's terminal job from the queue (KeepTerminal 1).
	_, m1 := postJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[1],"seed":1}`, nil)
	waitDone(t, srv, m1["id"].(string))
	orphanFP := mustSpecFingerprints(t, `{"machines":[1],"seed":1}`)[0]
	if _, ok, _ := st.GetTrace(orphanFP); !ok {
		t.Fatal("no trace recorded for campaign 1")
	}
	_, m2 := postJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[2],"seed":2}`, nil)
	waitDone(t, srv, m2["id"].(string))
	keptFP := mustSpecFingerprints(t, `{"machines":[2],"seed":2}`)[0]

	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok, _ := st.GetTrace(orphanFP); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("GC never reaped the orphaned trace")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, ok, _ := st.GetTrace(keptFP); !ok {
		t.Fatal("GC reaped a trace whose job the queue still retains")
	}
	// The result records are never orphan-reaped.
	if _, ok, _ := st.Get(orphanFP); !ok {
		t.Fatal("GC reaped a result record")
	}
}
