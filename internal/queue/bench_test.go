package queue

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"
)

var benchPayload = json.RawMessage(`{"request":{"machines":[1,4,7,8],"seed":42},"seed":42}`)

// untimedClose closes q after stopping the timer: Close compacts every
// job submitted, a cost no submission pays.
func untimedClose(b *testing.B, q *Queue) {
	b.StopTimer()
	if err := q.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSubmitDurable measures the fsync-bound WAL append every
// durable submission pays.
func BenchmarkSubmitDurable(b *testing.B) {
	q, err := Open(Config{Dir: b.TempDir(), Capacity: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	q.compactAfter = 1 << 30
	defer untimedClose(b, q)
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

// BenchmarkSubmitParallel is BenchmarkSubmitDurable under concurrent
// submitters: the WAL's group commit folds parallel submissions into
// shared fsyncs, so jobs/s should clear the one-fsync-per-job floor the
// sequential path pays.
func BenchmarkSubmitParallel(b *testing.B) {
	q, err := Open(Config{Dir: b.TempDir(), Capacity: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	q.compactAfter = 1 << 30
	defer untimedClose(b, q)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := q.Submit(benchPayload, SubmitOptions{}); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkRecover measures crash recovery: opening a queue whose
// journal holds a 256-job backlog, a third each pending, in flight and
// done, uncompacted since the dead process opened it, and
// re-materializing every job, as a restarted daemon does before serving
// its first request. Open's own compaction of the recovered state is
// part of it. Every iteration opens a fresh copy of the same journal;
// making the copy and closing the queue are not timed.
func BenchmarkRecover(b *testing.B) {
	const jobs = 256
	dir := b.TempDir()
	q, err := Open(Config{Dir: dir, Capacity: jobs, KeepTerminal: jobs})
	if err != nil {
		b.Fatal(err)
	}
	q.compactAfter = 1 << 30
	done := 0
	for i := 0; i < jobs; i++ {
		if _, _, err := q.Submit(benchPayload, SubmitOptions{}); err != nil {
			b.Fatal(err)
		}
		if i%3 == 0 {
			continue // leave pending
		}
		// Lease takes the oldest pending job; act on that one.
		j, ok, err := q.Lease("bench", time.Hour)
		if err != nil || !ok {
			b.Fatal(ok, err)
		}
		if i%3 == 1 {
			// In flight with a renewed lease: the crash-recovery case.
			_, err = q.Heartbeat(j.ID, "bench", j.LeaseToken, time.Hour)
		} else {
			err = q.CompleteLease(j.ID, "bench", j.LeaseToken, json.RawMessage(`{"ok":true}`))
			done++
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	// No Close: keep the journal as a crashed daemon leaves it.
	q.wal.Close()
	journal, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		run := filepath.Join(dir, strconv.Itoa(i))
		if err := os.Mkdir(run, 0o755); err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(run, journalName), journal, 0o644); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		qr, err := Open(Config{Dir: run, Capacity: jobs, KeepTerminal: jobs})
		if err != nil {
			b.Fatal(err)
		}
		if got := qr.StatsSnapshot(); got.Pending != jobs-done || got.Done != done {
			b.Fatalf("recovery lost the backlog: %+v", got)
		}
		b.StopTimer()
		if err := qr.Close(); err != nil {
			b.Fatal(err)
		}
		if err := os.RemoveAll(run); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(jobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkCompact measures one journal compaction of 256 retained jobs
// shaped like a served five-machine campaign: ten progress events in the
// history, and a report of about 1.7 KB. It includes reopening the
// append handle on the new journal.
func BenchmarkCompact(b *testing.B) {
	const jobs, machines = 256, 5
	// Built in memory, where nothing fsyncs, then compacted into a
	// directory: the journal is the same as a durable queue's.
	q, err := Open(Config{Capacity: jobs, KeepTerminal: jobs})
	if err != nil {
		b.Fatal(err)
	}
	row := `{"name":"No.%d","machine_fingerprint":"%064d","mapping_fingerprint":"%064d","ok":true,"match":true,"cached":true,"attempts":0,"sim_s":8.6453,"measurements":19240,"wall_s":0.00012}`
	report := `{"total":5,"succeeded":5,"failed":0,"cached":5,"wall_s":0.0021,"jobs":[`
	for m := 0; m < machines; m++ {
		if m > 0 {
			report += ","
		}
		report += fmt.Sprintf(row, m+1, m, m)
	}
	report += `]}`
	for i := 0; i < jobs; i++ {
		if _, _, err := q.Submit(benchPayload, SubmitOptions{}); err != nil {
			b.Fatal(err)
		}
		l, _, err := q.Lease("local-1", time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		for m := 0; m < machines; m++ {
			ev := fmt.Sprintf(`{"kind":"job_started","job":"No.%d","index":%d,"attempt":0}`, m+1, m)
			if err := q.Progress(l.ID, "local-1", l.LeaseToken, "job_started", json.RawMessage(ev)); err != nil {
				b.Fatal(err)
			}
			ev = fmt.Sprintf(`{"kind":"job_finished","job":"No.%d","index":%d,"attempt":0,"match":true,"cached":true,"sim_s":8.6453}`, m+1, m)
			if err := q.Progress(l.ID, "local-1", l.LeaseToken, "job_finished", json.RawMessage(ev)); err != nil {
				b.Fatal(err)
			}
		}
		if err := q.CompleteLease(l.ID, "local-1", l.LeaseToken, json.RawMessage(report)); err != nil {
			b.Fatal(err)
		}
	}
	q.cfg.Dir = b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.mu.Lock()
		err := q.compactLocked()
		q.mu.Unlock()
		if err != nil {
			b.Fatal(err)
		}
	}
	untimedClose(b, q)
}
