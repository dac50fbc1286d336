package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dramdig/internal/queue"
	"dramdig/internal/store"
)

// BenchmarkLeaseGrant times one lease grant, server.lease, for a remote
// worker with three workers registered and the queue holding the
// default -max-queued backlog of 64 campaigns. Each grant takes one
// campaign; outside the timer the lease is completed and one campaign
// is submitted, so every grant sees the same queue.
func BenchmarkLeaseGrant(b *testing.B) {
	const backlog = 64
	for _, bc := range []struct{ name, body string }{
		{"paper", `{"machines":[-1]}`},
		{"generated8", `{"generated":8}`},
	} {
		b.Run(bc.name, func(b *testing.B) {
			st, err := store.Open(store.Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			q, err := queue.Open(queue.Config{Capacity: backlog})
			if err != nil {
				b.Fatal(err)
			}
			defer q.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			srv := newServer(ctx, st, q, serverConfig{})

			for _, w := range []string{"w1", "w2", "w3"} {
				if _, ok, err := srv.lease(w); ok || err != nil {
					b.Fatalf("%s registering: ok=%v err=%v", w, ok, err)
				}
			}
			submit := func() {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/campaigns", strings.NewReader(bc.body)))
				if rec.Code != http.StatusAccepted {
					b.Fatalf("POST: %d %s", rec.Code, rec.Body.String())
				}
			}
			for range backlog {
				submit()
			}

			b.ResetTimer()
			for range b.N {
				g, ok, err := srv.lease("w1")
				if err != nil || !ok {
					b.Fatalf("lease: ok=%v err=%v", ok, err)
				}
				b.StopTimer()
				if err := q.CompleteLease(g.ID, "w1", g.Token, nil); err != nil {
					b.Fatal(err)
				}
				submit()
				b.StartTimer()
			}
		})
	}
}
