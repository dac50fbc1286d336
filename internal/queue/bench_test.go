package queue

import (
	"encoding/json"
	"testing"
	"time"
)

var benchPayload = json.RawMessage(`{"request":{"machines":[1,4,7,8],"seed":42},"seed":42}`)

// BenchmarkSubmitDurable measures the fsync-bound WAL append every
// durable submission pays.
func BenchmarkSubmitDurable(b *testing.B) {
	q, err := Open(Config{Dir: b.TempDir(), Capacity: 1 << 30, CompactEvery: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer q.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := q.Submit(benchPayload, SubmitOptions{Priority: i % 3}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkSubmitMemory is the same path without the WAL.
func BenchmarkSubmitMemory(b *testing.B) {
	q, err := Open(Config{Capacity: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer q.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := q.Submit(benchPayload, SubmitOptions{Priority: i % 3}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkRecover measures reopening a queue with a 256-job backlog —
// what a restarted daemon does before serving its first request.
func BenchmarkRecover(b *testing.B) {
	const jobs = 256
	dir := b.TempDir()
	q, err := Open(Config{Dir: dir, Capacity: jobs, KeepTerminal: jobs, CompactEvery: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < jobs; i++ {
		if _, _, err := q.Submit(benchPayload, SubmitOptions{}); err != nil {
			b.Fatal(err)
		}
		if i%2 == 1 {
			// Lease takes the oldest pending job; checkpoint that one.
			j, ok, err := q.Lease("bench", time.Hour, nil)
			if err != nil || !ok {
				b.Fatal(ok, err)
			}
			if _, err := q.Heartbeat(j.ID, "bench", j.LeaseToken, time.Hour, json.RawMessage(`{"jobs":[{"index":0}]}`)); err != nil {
				b.Fatal(err)
			}
		}
	}
	// No Close: recover the raw WAL like a crashed daemon's successor.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qr, err := Open(Config{Dir: dir, Capacity: jobs, KeepTerminal: jobs})
		if err != nil {
			b.Fatal(err)
		}
		if got := qr.StatsSnapshot(); got.Pending != jobs {
			b.Fatalf("recovery lost the backlog: %+v", got)
		}
		if err := qr.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(jobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
}
