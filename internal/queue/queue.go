// Package queue is a durable, prioritized job queue: the persistence
// layer between the dramdigd HTTP surface and the campaign workers. Jobs
// carry an opaque JSON payload and walk a small state machine
// (submitted → running under a lease → done/failed, or cancelled);
// every transition appends to a write-ahead log so a crashed or
// redeployed process re-opens the queue and finds its work exactly
// where it left it — jobs that were in flight come back as submitted,
// keeping their attempt count, and the next lease runs them again
// instead of losing them.
//
// Durability is built on internal/storage: the journal, queue.log, is a
// storage.AppendLog of checksummed records, one JSON walRecord each,
// fsync'd before a mutation is acknowledged. Periodically (and on every
// Open and Close) compaction replaces it atomically
// (storage.WriteFileAtomic) with a head record and one submit record per
// retained job. Recovery replays it through storage.ReadLog, which cuts
// a torn last record — the one write a crash can actually tear — and
// refuses a bad record anywhere else. A directory a cleanly stopped
// older release left (snapshot.json beside an empty JSON-line wal.log)
// is imported once; a wal.log that still holds records is refused.
// Concurrent mutations group-commit: records are written under
// the state lock but fsync'd outside it by a leader — whoever reaches
// the sync lock first flushes everything written so far, and the rest
// find their record already durable, so N concurrent submissions cost
// one fsync, not N.
//
// Work leaves the queue only as a *lease*: Lease hands the best pending
// job to a named owner with a fencing token and a deadline, all in the
// WAL. Heartbeat extends the deadline, Progress appends one of the
// holder's own events to the job's history, CompleteLease/FailLease
// terminate — every lease mutation is fenced by the token, so a worker
// whose lease expired, was cancelled or was re-granted elsewhere is
// rejected without corrupting state. ExpireLeases requeues jobs whose
// deadline passed, attempt count intact — the same requeue semantics
// crash recovery applies, so a dead worker costs one lease TTL, not a
// campaign. The queue alone ends a lease, and it tells the holder:
// Job.LeaseEnded is closed the moment the lease completes, fails, is
// cancelled or expires.
//
// Backpressure and dedup are first-class: Submit refuses work past the
// configured pending capacity with ErrFull (the daemon turns that into
// 429 + Retry-After), and an idempotency key resubmitted while the
// original job is retained returns that job instead of enqueueing a
// duplicate. Higher Priority leases first; within a priority, FIFO.
//
// With no directory configured the queue runs memory-only: identical
// semantics, no durability — the mode dramdigd uses when -queue-dir is
// unset.
package queue

import (
	"bytes"
	"cmp"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dramdig/internal/metrics"
	"dramdig/internal/storage"
)

// State is a job's position in the lifecycle.
type State string

const (
	// StateSubmitted jobs are waiting to be leased (including
	// recovered jobs that were in flight when the process died).
	StateSubmitted State = "submitted"
	// StateRunning jobs are held by a lease.
	StateRunning State = "running"
	// StateDone, StateFailed and StateCancelled are terminal.
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state ends the job's lifecycle.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// InFlight reports whether the job is with a worker right now: neither
// waiting nor finished. Besides running, that covers the "checkpointed"
// state older snapshots hold, so Open requeues those jobs too.
func (s State) InFlight() bool {
	return s != StateSubmitted && !s.Terminal()
}

// Job is one queued unit of work. The queue never interprets Payload
// or Result; they are the caller's JSON. Jobs returned by queue methods
// are copies — mutate freely, the queue keeps its own.
type Job struct {
	ID             string          `json:"id"`
	Priority       int             `json:"priority,omitempty"`
	IdempotencyKey string          `json:"idempotency_key,omitempty"`
	Payload        json.RawMessage `json:"payload,omitempty"`
	State          State           `json:"state"`
	// Result is the terminal payload recorded by CompleteLease.
	Result json.RawMessage `json:"result,omitempty"`
	// Error is the terminal failure message (failed/cancelled).
	Error string `json:"error,omitempty"`
	// Attempts counts leases: 1 on the first run, more after an expiry
	// or crash recovery re-queued the job.
	Attempts int `json:"attempts,omitempty"`
	// Recovered marks a job that was in flight when a previous process
	// died and was re-queued at Open.
	Recovered bool `json:"recovered,omitempty"`
	// Seq is the submission order, the FIFO key within a priority.
	Seq uint64 `json:"seq"`
	// SubmittedUnixNano is the precise submission instant — the start of
	// the queue-wait tracing span reconstructed at the lease grant.
	SubmittedUnixNano int64 `json:"submitted_unix_nano,omitempty"`
	// TraceParent and RequestID carry the submitting request's trace
	// context (W3C traceparent) and request ID across the enqueue →
	// lease handoff — and, being persisted, across a process death —
	// so campaign spans and transition logs stay correlated with the
	// originating HTTP request. The queue never interprets them.
	TraceParent string `json:"trace_parent,omitempty"`
	RequestID   string `json:"request_id,omitempty"`
	// LeaseOwner, LeaseToken and LeaseExpiresUnixNano describe an active
	// lease (see Lease): who holds the job, the fencing token that gates
	// every lease mutation, and the heartbeat deadline. Old journals
	// without them replay fine.
	LeaseOwner           string `json:"lease_owner,omitempty"`
	LeaseToken           string `json:"lease_token,omitempty"`
	LeaseExpiresUnixNano int64  `json:"lease_expires_unix_nano,omitempty"`
	// History records the job's lifecycle events in order (see Event).
	// It is rebuilt identically by journal replay and carried whole by
	// compaction, so a campaign timeline survives restarts.
	History []Event `json:"history,omitempty"`

	// syncPending marks a job whose submit record is written but not yet
	// fsync'd; such jobs are invisible to Lease until the group commit
	// lands. Unexported: never serialized.
	syncPending bool
	// leaseEnded is made by Lease and closed by endLease (see
	// LeaseEnded); nil while no lease is live. Never serialized.
	leaseEnded chan struct{}
}

// LeaseEnded returns a channel the queue closes when the lease this copy
// of the job was taken under ends: completed, failed, cancelled or
// expired. It is nil for a copy taken while no lease was live, such as
// a job never leased or one Open recovered.
func (j *Job) LeaseEnded() <-chan struct{} { return j.leaseEnded }

// endLease clears the job's lease and closes its LeaseEnded channel:
// every lease ends here.
func (j *Job) endLease() {
	j.LeaseOwner, j.LeaseToken, j.LeaseExpiresUnixNano = "", "", 0
	if j.leaseEnded != nil {
		close(j.leaseEnded)
		j.leaseEnded = nil
	}
}

func (j *Job) clone() Job {
	c := *j
	if len(j.History) > 0 {
		c.History = append([]Event(nil), j.History...)
	}
	return c
}

// Event is one recorded entry of a job's history: what happened, when,
// and — for lease-driven transitions — which worker was involved. The
// daemon's campaign timeline endpoint merges these with span data into
// one chronological view.
type Event struct {
	// Seq is the WAL sequence number of the mutation that produced the
	// event — a total order even when timestamps tie.
	Seq        uint64 `json:"seq"`
	AtUnixNano int64  `json:"at_unix_nano,omitempty"`
	Type       string `json:"type"`
	// Worker is the lease owner that drove the event ("" for transitions
	// no worker drove).
	Worker  string `json:"worker,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Detail  string `json:"detail,omitempty"`
	// Data is the caller's JSON for an event recorded by Progress (its
	// Type is the caller's kind); lifecycle events carry none.
	Data json.RawMessage `json:"data,omitempty"`
}

// Event types. Lease renewals are deliberately not recorded — at TTL/3
// cadence they would drown the history without adding lifecycle
// information.
const (
	EventSubmitted = "submitted"
	EventLeased    = "leased" // worker pickup
	EventExpired   = "expired"
	EventRequeued  = "requeued"
	EventDone      = "done"
	EventFailed    = "failed"
	EventCancelled = "cancelled"
)

// maxJobHistory bounds one job's recorded events. Past the cap the
// oldest events after the submission are dropped — the submission
// anchors the timeline, the tail keeps the recent lifecycle. Several
// attempts of a 256-job campaign (two progress events per job) fit.
const maxJobHistory = 2048

func (j *Job) recordEvent(ev Event) {
	j.History = append(j.History, ev)
	if len(j.History) > maxJobHistory {
		copy(j.History[1:], j.History[2:])
		j.History = j.History[:maxJobHistory]
	}
}

// Sentinel errors. ErrFull means the pending backlog is at capacity;
// ErrBadState means the requested transition is not legal from the
// job's current state.
var (
	ErrFull     = errors.New("queue: full")
	ErrNotFound = errors.New("queue: no such job")
	ErrBadState = errors.New("queue: bad state for transition")
	// ErrLeaseExpired means the job has no active lease (it expired and
	// was requeued, or the heartbeat deadline has passed).
	ErrLeaseExpired = errors.New("queue: lease expired")
	// ErrStaleLease means the presented owner/token does not match the
	// job's current lease — it was expired and re-leased elsewhere.
	ErrStaleLease = errors.New("queue: stale lease token")
)

// Config tunes a queue. The zero value is a usable memory-only queue.
type Config struct {
	// Dir holds the journal, queue.log; empty keeps the queue in memory.
	Dir string
	// Capacity bounds jobs in StateSubmitted (default 64). In-flight and
	// terminal jobs do not count: backpressure is about the backlog.
	Capacity int
	// KeepTerminal bounds retained terminal jobs (default 256); the
	// oldest are evicted past the cap, which also ends their
	// idempotency-dedup window.
	KeepTerminal int
}

// idPrefix prefixes generated job IDs ("c1", "c2", …), the daemon's
// campaign IDs.
const idPrefix = "c"

// compactEvery is the number of journal records between automatic
// compactions.
const compactEvery = 1024

func (c *Config) setDefaults() {
	if c.Capacity <= 0 {
		c.Capacity = 64
	}
	if c.KeepTerminal <= 0 {
		c.KeepTerminal = 256
	}
}

// SubmitOptions qualify one submission.
type SubmitOptions struct {
	// Priority orders dequeue: higher first, FIFO within equal values.
	Priority int
	// IdempotencyKey deduplicates: while a job with this key is
	// retained, resubmission returns it instead of enqueueing again.
	IdempotencyKey string
	// TraceParent and RequestID are stored verbatim on the job (see
	// Job.TraceParent) for cross-layer correlation; both optional.
	TraceParent string
	RequestID   string
}

// Stats is a point-in-time census of the queue, plus cumulative
// process-lifetime counters (not persisted across restarts).
type Stats struct {
	Capacity  int `json:"capacity"`
	Pending   int `json:"pending"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
	// Leased counts in-flight jobs held under an active lease (a subset
	// of Running).
	Leased int `json:"leased"`
	// Recovered counts non-terminal jobs that survived a process death.
	Recovered int `json:"recovered"`
	// Submitted counts accepted Submit calls; Deduped the submissions
	// answered by an idempotency-key match instead of a new job.
	Submitted uint64 `json:"submitted"`
	Deduped   uint64 `json:"deduped"`
	// Requeued counts in-flight jobs Open returned to the backlog after
	// a process death; Compactions counts journal compactions.
	Requeued    uint64 `json:"requeued"`
	Compactions uint64 `json:"compactions"`
	// Expired counts leases the expiry sweep requeued after missed
	// heartbeats.
	Expired uint64 `json:"expired"`
}

// Queue is safe for concurrent use.
type Queue struct {
	mu      sync.Mutex
	cfg     Config
	jobs    map[string]*Job
	byKey   map[string]string // idempotency key → job ID
	pending int               // jobs in StateSubmitted (capacity check is O(1))
	seq     uint64            // last assigned WAL sequence number
	nextID  uint64
	wal     *storage.AppendLog // the journal; nil in memory mode
	walLen  int                // records since last compaction
	closed  bool
	// compactAfter is the journal length that triggers a compaction:
	// compactEvery, which only the package's tests and benchmarks change
	// (right after Open).
	compactAfter int

	// Group-commit state. Records are written to the WAL under q.mu but
	// fsync'd under walMu, usually after q.mu is released (lock order is
	// q.mu → walMu; walMu is never held while taking q.mu; q.wal changes
	// only under both): syncTo skips the fsync entirely when a concurrent
	// leader already pushed the durable watermark (syncedSeq) past the
	// caller's record. writtenSeq
	// is the highest sequence number written to the file, stored under
	// q.mu and read under walMu, hence atomic.
	walMu      sync.Mutex
	syncedSeq  uint64 // highest fsync-covered seq; guarded by walMu
	writtenSeq atomic.Uint64

	// Cumulative counters surfaced through Stats.
	submitted   uint64
	deduped     uint64
	requeued    uint64
	compactions uint64
	expired     uint64
	// WAL latency histograms (nil until RegisterMetrics; Observe on a
	// nil histogram is a no-op).
	walAppend *metrics.Histogram
	walFsync  *metrics.Histogram
	// leaseWait observes submit→first-lease latency. It is computed from
	// the persisted SubmittedUnixNano, so a job submitted before a daemon
	// restart still reports its true wall-clock wait.
	leaseWait *metrics.Histogram

	ready chan struct{} // signaled (cap 1) when pending work appears
	// changed is closed and replaced on every applied record: the
	// broadcast readers of job state block on (see Changed).
	changed chan struct{}
}

const (
	journalName = "queue.log"
	// The files of releases before the journal: a JSON snapshot and a
	// JSON-line WAL that a clean stop left empty.
	oldSnapshotName = "snapshot.json"
	oldWALName      = "wal.log"
)

// walRecord is one journal record. A compacted journal opens with a
// "head" record, which carries the sequence number and the last
// generated ID, and holds one "submit" record per retained job. After it
// come the live mutations: submit records carry the whole job; state,
// lease, progress and expire records patch an existing one.
type walRecord struct {
	Seq    uint64          `json:"seq"`
	Op     string          `json:"op"` // "head", "submit", "state", "lease", "progress", "expire"
	NextID uint64          `json:"next_id,omitempty"`
	Job    *Job            `json:"job,omitempty"`
	ID     string          `json:"id,omitempty"`
	State  State           `json:"state,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	// Lease patch: who holds the job, the fencing token and the
	// heartbeat deadline (UnixNano).
	Owner        string `json:"owner,omitempty"`
	Token        string `json:"token,omitempty"`
	LeaseExpires int64  `json:"lease_expires,omitempty"`
	// Kind and Data are a progress record's event (see Progress).
	Kind string          `json:"kind,omitempty"`
	Data json.RawMessage `json:"data,omitempty"`
	// At stamps when the mutation happened (UnixNano) so replay rebuilds
	// the same event history.
	At int64 `json:"at,omitempty"`
}

// Open loads (or creates) a queue. With Config.Dir set it recovers
// persisted state by replaying the journal; jobs that were in flight
// return to submitted with their attempt counts intact and Recovered
// set, and the recovered state is compacted back to disk before Open
// returns.
func Open(cfg Config) (*Queue, error) {
	cfg.setDefaults()
	q := &Queue{
		cfg:          cfg,
		jobs:         make(map[string]*Job),
		byKey:        make(map[string]string),
		compactAfter: compactEvery,
		ready:        make(chan struct{}, 1),
		changed:      make(chan struct{}),
	}
	if cfg.Dir == "" {
		return q, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("queue: %w", err)
	}
	if err := q.load(); err != nil {
		return nil, err
	}
	// Re-queue interrupted work: anything in flight when the previous
	// process died is pending again, attempt count kept.
	// Leases die with the process that granted them — the token is gone,
	// so a worker still heartbeating an old lease gets ErrLeaseExpired
	// and abandons; the requeued job runs exactly once.
	q.pending = 0
	for _, j := range q.jobs {
		if j.State.InFlight() {
			j.State = StateSubmitted
			j.Recovered = true
			j.endLease()
			q.requeued++
			// Not a WAL mutation — the requeue event is persisted through
			// the compaction below, like the state flip itself.
			j.recordEvent(Event{Seq: q.seq, AtUnixNano: time.Now().UnixNano(), Type: EventRequeued, Attempt: j.Attempts, Detail: "recovered"})
		}
		if j.State == StateSubmitted {
			q.pending++
		}
	}
	// Persist the recovered view as a fresh journal. Only then may an
	// imported release's files go.
	if err := q.compactLocked(); err != nil {
		return nil, err
	}
	for _, name := range []string{oldSnapshotName, oldWALName} {
		if err := storage.RemoveDurable(filepath.Join(cfg.Dir, name)); err != nil {
			q.wal.Close()
			return nil, fmt.Errorf("queue: %w", err)
		}
	}
	if q.pending > 0 {
		q.wake()
	}
	return q, nil
}

// load replays the journal into memory. A directory without one is new,
// or was left by a release that kept a snapshot (see importOld).
func (q *Queue) load() error {
	err := storage.ReadLog(filepath.Join(q.cfg.Dir, journalName), func(data []byte) error {
		var rec walRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return err
		}
		if rec.Op == "head" {
			q.nextID = rec.NextID
		} else if err := q.applyLocked(rec); err != nil {
			return err
		}
		q.seq = rec.Seq
		return nil
	})
	if errors.Is(err, fs.ErrNotExist) {
		return q.importOld()
	}
	if err != nil {
		return fmt.Errorf("queue: replay %s: %w", journalName, err)
	}
	return nil
}

// importOld loads the snapshot.json an older release compacted its
// state into on a clean stop. Such a stop leaves that release's
// JSON-line wal.log empty; one that still holds records is refused,
// since this release does not read JSON lines.
func (q *Queue) importOld() error {
	walPath := filepath.Join(q.cfg.Dir, oldWALName)
	if fi, err := os.Stat(walPath); err == nil && fi.Size() > 0 {
		return fmt.Errorf("queue: %s holds records this release does not read: start the release that wrote it on %s and stop it cleanly, which compacts them into %s, then start this one", walPath, q.cfg.Dir, oldSnapshotName)
	} else if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("queue: %w", err)
	}
	snapPath := filepath.Join(q.cfg.Dir, oldSnapshotName)
	data, err := os.ReadFile(snapPath)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("queue: %w", err)
	}
	var snap struct {
		Seq    uint64 `json:"seq"`
		NextID uint64 `json:"next_id"`
		Jobs   []Job  `json:"jobs"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("queue: corrupt snapshot %s: %w", snapPath, err)
	}
	q.seq, q.nextID = snap.Seq, snap.NextID
	for i := range snap.Jobs {
		if err := q.applyLocked(walRecord{Op: "submit", Job: &snap.Jobs[i]}); err != nil {
			return fmt.Errorf("queue: import %s: %w", snapPath, err)
		}
	}
	return nil
}

// applyLocked folds one record into the in-memory state. It is the
// single mutation path: live transitions build a record, apply it, then
// append it — so replaying the WAL reproduces exactly the state the
// live process had. A submit record's job is kept as it is: replay and
// import decode a fresh one, and Submit passes a clone of the job it
// returns. The live paths, Submit and transitionLocked, wake the
// readers blocked on Changed; no reader can wait on a queue Open has
// not returned yet.
func (q *Queue) applyLocked(rec walRecord) error {
	j := rec.Job
	if rec.Op != "submit" {
		if j = q.jobs[rec.ID]; j == nil {
			return fmt.Errorf("%s record %d for unknown job %s", rec.Op, rec.Seq, rec.ID)
		}
	}
	switch rec.Op {
	case "submit":
		if j == nil {
			return fmt.Errorf("submit record %d has no job", rec.Seq)
		}
		q.jobs[j.ID] = j
		if j.State == StateSubmitted {
			q.pending++
		}
		if j.IdempotencyKey != "" {
			q.byKey[j.IdempotencyKey] = j.ID
		}
		if n := parseID(j.ID); n >= q.nextID {
			q.nextID = n
		}
	case "state":
		if !rec.State.Terminal() {
			return fmt.Errorf("state record %d moves job %s to non-terminal state %q", rec.Seq, rec.ID, rec.State)
		}
		if j.State == StateSubmitted {
			q.pending--
		}
		// Attribute terminal events to the worker that held the lease.
		owner := j.LeaseOwner
		j.State = rec.State
		j.endLease()
		switch rec.State {
		case StateDone:
			j.Result = rec.Result
			j.recordEvent(Event{Seq: rec.Seq, AtUnixNano: rec.At, Type: EventDone, Worker: owner, Attempt: j.Attempts})
		case StateFailed:
			j.Error = rec.Error
			j.recordEvent(Event{Seq: rec.Seq, AtUnixNano: rec.At, Type: EventFailed, Worker: owner, Attempt: j.Attempts, Detail: rec.Error})
		case StateCancelled:
			j.Error = rec.Error
			j.recordEvent(Event{Seq: rec.Seq, AtUnixNano: rec.At, Type: EventCancelled, Worker: owner, Attempt: j.Attempts, Detail: rec.Error})
		}
		q.evictTerminalLocked()
	case "lease":
		if j.State == StateSubmitted {
			q.pending--
		}
		j.State = StateRunning
		j.Attempts++
		j.LeaseOwner, j.LeaseToken, j.LeaseExpiresUnixNano = rec.Owner, rec.Token, rec.LeaseExpires
		j.recordEvent(Event{Seq: rec.Seq, AtUnixNano: rec.At, Type: EventLeased, Worker: rec.Owner, Attempt: j.Attempts})
	case "progress":
		j.recordEvent(Event{Seq: rec.Seq, AtUnixNano: rec.At, Type: rec.Kind, Worker: j.LeaseOwner, Attempt: j.Attempts, Data: rec.Data})
	case "expire":
		owner := j.LeaseOwner
		requeued := j.State.InFlight()
		if requeued {
			j.State = StateSubmitted
			q.pending++
		}
		j.endLease()
		j.recordEvent(Event{Seq: rec.Seq, AtUnixNano: rec.At, Type: EventExpired, Worker: owner, Attempt: j.Attempts})
		if requeued {
			j.recordEvent(Event{Seq: rec.Seq, AtUnixNano: rec.At, Type: EventRequeued, Attempt: j.Attempts})
		}
	default:
		return fmt.Errorf("record %d has unknown op %q", rec.Seq, rec.Op)
	}
	return nil
}

// parseID extracts the numeric part of a generated ID ("c17" → 17).
func parseID(id string) uint64 {
	num, ok := strings.CutPrefix(id, idPrefix)
	if !ok {
		return 0
	}
	n, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// appendLocked writes one record to the WAL (no fsync — that is
// syncTo's job, taken outside q.mu so concurrent mutations share one
// flush) and compacts when due. Callers hold q.mu and have already
// applied the record.
func (q *Queue) appendLocked(rec walRecord) error {
	if q.wal == nil {
		return nil
	}
	start := time.Now()
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("queue: encode WAL record: %w", err)
	}
	if err := q.wal.Append(data); err != nil {
		return fmt.Errorf("queue: %w", err)
	}
	q.writtenSeq.Store(rec.Seq)
	q.walAppend.Observe(time.Since(start).Seconds())
	q.walLen++
	if q.walLen >= q.compactAfter {
		return q.compactLocked()
	}
	return nil
}

// syncTo makes every record up to seq durable. Called after q.mu is
// released: the first caller in (the leader) fsyncs everything written
// so far and advances the watermark past every concurrent writer's
// record — they arrive, see syncedSeq ≥ their seq, and return without
// touching the disk. That is the group commit: N concurrent mutations,
// one fsync.
func (q *Queue) syncTo(seq uint64) error {
	q.walMu.Lock()
	defer q.walMu.Unlock()
	if q.wal == nil || seq <= q.syncedSeq {
		return nil
	}
	// Snapshot before the fsync: records written after this point may
	// only partially hit the disk, and must not be marked durable.
	covered := q.writtenSeq.Load()
	start := time.Now()
	if err := q.wal.Sync(); err != nil {
		return fmt.Errorf("queue: %w", err)
	}
	q.walFsync.Observe(time.Since(start).Seconds())
	if covered > q.syncedSeq {
		q.syncedSeq = covered
	}
	return nil
}

// compactLocked replaces the journal, atomically and durably, with one
// that holds the full state (see writeJournal), then appends to it.
// Durable mode only.
func (q *Queue) compactLocked() error {
	path := filepath.Join(q.cfg.Dir, journalName)
	if err := storage.WriteFileAtomic(path, 0o644, q.writeJournal); err != nil {
		return fmt.Errorf("queue: compact: %w", err)
	}
	wal, err := storage.OpenAppendLog(path)
	if err != nil {
		return fmt.Errorf("queue: %w", err)
	}
	// Swap the handle under walMu, so a straggling syncTo never fsyncs a
	// closed file. Every record ≤ q.seq is durable in the new journal, so
	// pending syncTo calls skip the fsync, and closing the replaced
	// file's handle can lose nothing.
	q.walMu.Lock()
	if q.wal != nil {
		q.wal.Close()
	}
	q.wal = wal
	if q.seq > q.syncedSeq {
		q.syncedSeq = q.seq
	}
	q.walMu.Unlock()
	q.walLen = 0
	q.compactions++
	return nil
}

// writeJournal streams a compacted journal: the head record, then one
// submit record per job in submission order, each encoded into the same
// reused buffers, so compaction holds one encoded job at a time rather
// than a copy of the whole queue. Callers hold q.mu.
func (q *Queue) writeJournal(w io.Writer) error {
	var buf bytes.Buffer
	var frame []byte
	enc := json.NewEncoder(&buf)
	put := func(rec *walRecord) error {
		buf.Reset()
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("queue: encode journal: %w", err)
		}
		frame = storage.AppendRecord(frame[:0], buf.Bytes())
		_, err := w.Write(frame)
		return err
	}
	rec := walRecord{Seq: q.seq, Op: "head", NextID: q.nextID}
	if err := put(&rec); err != nil {
		return err
	}
	rec = walRecord{Seq: q.seq, Op: "submit"}
	for _, j := range q.sortedLocked(nil) {
		rec.Job = j
		if err := put(&rec); err != nil {
			return err
		}
	}
	return nil
}

// sortedLocked returns the jobs keep approves of (every job when keep is
// nil) in submission order; ties, which only a foreign journal can hold,
// break by ID so the order never depends on map iteration.
func (q *Queue) sortedLocked(keep func(*Job) bool) []*Job {
	out := make([]*Job, 0, len(q.jobs))
	for _, j := range q.jobs {
		if keep == nil || keep(j) {
			out = append(out, j)
		}
	}
	slices.SortFunc(out, func(a, b *Job) int {
		if c := cmp.Compare(a.Seq, b.Seq); c != 0 {
			return c
		}
		return strings.Compare(a.ID, b.ID)
	})
	return out
}

// Close compacts (durable mode) and releases the WAL. Further calls on
// the queue fail.
func (q *Queue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil
	}
	q.closed = true
	var err error
	if q.wal != nil {
		err = q.compactLocked()
		// Close and nil the handle under walMu so a straggling syncTo
		// never fsyncs a closed file.
		q.walMu.Lock()
		if cerr := q.wal.Close(); err == nil {
			err = cerr
		}
		q.wal = nil
		q.walMu.Unlock()
	}
	return err
}

var errClosed = errors.New("queue: closed")

// Submit enqueues a job. The returned bool is true when an idempotency
// key matched a retained job and that job is returned instead of a new
// one. ErrFull reports a pending backlog at capacity.
//
// In durable mode the record is written under the state lock but
// fsync'd outside it, so concurrent submissions group-commit into one
// flush. Until its fsync lands a job is invisible to Lease — Submit
// never acknowledges (and never hands out) work the disk might not
// know about.
func (q *Queue) Submit(payload json.RawMessage, opts SubmitOptions) (Job, bool, error) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return Job{}, false, errClosed
	}
	if opts.IdempotencyKey != "" {
		if id, ok := q.byKey[opts.IdempotencyKey]; ok {
			if j, ok := q.jobs[id]; ok {
				q.deduped++
				c := j.clone()
				q.mu.Unlock()
				return c, true, nil
			}
			delete(q.byKey, opts.IdempotencyKey) // job evicted; key expired
		}
	}
	if q.pending >= q.cfg.Capacity {
		q.mu.Unlock()
		return Job{}, false, ErrFull
	}
	q.nextID++
	q.seq++
	now := time.Now()
	j := Job{
		ID:                fmt.Sprintf("%s%d", idPrefix, q.nextID),
		Priority:          opts.Priority,
		IdempotencyKey:    opts.IdempotencyKey,
		Payload:           append(json.RawMessage(nil), payload...),
		State:             StateSubmitted,
		Seq:               q.seq,
		SubmittedUnixNano: now.UnixNano(),
		TraceParent:       opts.TraceParent,
		RequestID:         opts.RequestID,
		History:           []Event{{Seq: q.seq, AtUnixNano: now.UnixNano(), Type: EventSubmitted}},
		syncPending:       q.wal != nil,
	}
	kept := j.clone()
	rec := walRecord{Seq: q.seq, Op: "submit", Job: &kept}
	if err := q.applyLocked(rec); err != nil {
		q.mu.Unlock()
		return Job{}, false, err
	}
	close(q.changed)
	q.changed = make(chan struct{})
	if err := q.appendLocked(rec); err != nil {
		// The WAL is the source of truth; an unpersistable submit must
		// not be admitted.
		q.rollbackSubmitLocked(&j)
		q.mu.Unlock()
		return Job{}, false, err
	}
	q.submitted++
	q.mu.Unlock()

	if err := q.syncTo(j.Seq); err != nil {
		// Safe to retract: an unsynced job was never visible to Lease, so
		// nothing raced us to it.
		q.mu.Lock()
		q.rollbackSubmitLocked(&j)
		q.submitted--
		q.mu.Unlock()
		return Job{}, false, err
	}
	q.mu.Lock()
	kept.syncPending = false
	q.mu.Unlock()
	j.syncPending = false
	q.wake()
	return j, false, nil
}

// rollbackSubmitLocked retracts a submit whose WAL record could not be
// made durable.
func (q *Queue) rollbackSubmitLocked(j *Job) {
	delete(q.jobs, j.ID)
	q.pending--
	if j.IdempotencyKey != "" {
		delete(q.byKey, j.IdempotencyKey)
	}
}

// better reports whether candidate j should be picked over cur
// (highest priority first, FIFO within a priority). Jobs whose submit
// fsync has not landed yet are never eligible.
func better(j, cur *Job) bool {
	if j.State != StateSubmitted || j.syncPending {
		return false
	}
	return cur == nil || j.Priority > cur.Priority ||
		(j.Priority == cur.Priority && j.Seq < cur.Seq)
}

// Cancel ends a pending or leased job as cancelled. A leased job's
// lease dies with it: its LeaseEnded channel closes, and the holder's
// next Heartbeat, CompleteLease or FailLease reports ErrLeaseExpired,
// so it stops without reporting.
// Terminal jobs cannot change.
func (q *Queue) Cancel(id, msg string) (Job, error) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return Job{}, errClosed
	}
	j, ok := q.jobs[id]
	if !ok {
		q.mu.Unlock()
		return Job{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if j.State.Terminal() {
		q.mu.Unlock()
		return Job{}, fmt.Errorf("%w: cancel of %s job %s", ErrBadState, j.State, id)
	}
	if err := q.transitionLocked(id, walRecord{Op: "state", State: StateCancelled, Error: msg}); err != nil {
		q.mu.Unlock()
		return Job{}, err
	}
	out := *j
	if kept, ok := q.jobs[id]; ok {
		out = kept.clone()
	}
	seq := q.seq
	q.mu.Unlock()
	if err := q.syncTo(seq); err != nil {
		return Job{}, err
	}
	return out, nil
}

// defaultLeaseTTL applies when a lease or heartbeat passes ttl <= 0.
const defaultLeaseTTL = 30 * time.Second

// newLeaseToken mints a fencing token: 8 random bytes, hex.
func newLeaseToken() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means a broken platform; a time-derived
		// token keeps the queue usable and is still unguessable enough
		// to fence honest-but-delayed workers, which is all it gates.
		return strconv.FormatUint(uint64(time.Now().UnixNano()), 16)
	}
	return hex.EncodeToString(b[:])
}

// Lease hands the best pending job (highest priority, then FIFO) to
// owner for ttl, with a fencing token and a heartbeat deadline, all
// persisted. Every caller gets the same order. The second return is
// false when nothing is pending.
//
// The returned job's LeaseToken must accompany every Heartbeat,
// CompleteLease and FailLease for this grant; after the deadline passes
// and ExpireLeases requeues the job, or Cancel ends it, the token is
// dead and those calls report ErrLeaseExpired or ErrStaleLease. The
// returned job's LeaseEnded channel is closed whenever the lease ends,
// so a holder in this process learns of it at once.
//
// A grant that leaves work pending signals Ready again, so one wakeup
// fans out across idle workers: a burst of K submissions starts K
// leases even though Ready holds a single signal.
func (q *Queue) Lease(owner string, ttl time.Duration) (Job, bool, error) {
	if ttl <= 0 {
		ttl = defaultLeaseTTL
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return Job{}, false, errClosed
	}
	var pick *Job
	for _, j := range q.jobs {
		if better(j, pick) {
			pick = j
		}
	}
	if pick == nil {
		q.mu.Unlock()
		return Job{}, false, nil
	}
	rec := walRecord{
		Op:           "lease",
		State:        StateRunning,
		Owner:        owner,
		Token:        newLeaseToken(),
		LeaseExpires: time.Now().Add(ttl).UnixNano(),
	}
	if err := q.transitionLocked(pick.ID, rec); err != nil {
		q.mu.Unlock()
		return Job{}, false, err
	}
	pick.leaseEnded = make(chan struct{})
	out := pick.clone()
	// First lease only: a re-lease after expiry or recovery would fold
	// execution time into what is meant to be pure backlog wait.
	if out.Attempts == 1 && out.SubmittedUnixNano > 0 {
		q.leaseWait.Observe(time.Duration(time.Now().UnixNano() - out.SubmittedUnixNano).Seconds())
	}
	seq, more := q.seq, q.pending > 0
	q.mu.Unlock()
	if err := q.syncTo(seq); err != nil {
		return Job{}, false, err
	}
	if more {
		q.wake()
	}
	return out, true, nil
}

// leasedLocked resolves a lease-fenced mutation's target: the job must
// exist, hold an active lease, and that lease must match owner+token.
func (q *Queue) leasedLocked(id, owner, token string) (*Job, error) {
	j, ok := q.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if !j.State.InFlight() || j.LeaseToken == "" {
		return nil, fmt.Errorf("%w: job %s has no active lease", ErrLeaseExpired, id)
	}
	if j.LeaseOwner != owner || j.LeaseToken != token {
		return nil, fmt.Errorf("%w: job %s is leased elsewhere", ErrStaleLease, id)
	}
	return j, nil
}

// Heartbeat extends a lease by ttl. A heartbeat after the deadline is
// refused with ErrLeaseExpired even before the expiry sweep has
// requeued the job — late is late, deterministically. The new deadline
// is kept in memory only: leases die with the process (Open requeues
// every job in flight), so a journaled renewal would never be read
// back. The heartbeat still makes the holder's earlier progress records
// durable; with nothing pending it writes and fsyncs nothing.
func (q *Queue) Heartbeat(id, owner, token string, ttl time.Duration) (Job, error) {
	if ttl <= 0 {
		ttl = defaultLeaseTTL
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return Job{}, errClosed
	}
	now := time.Now()
	j, err := q.liveLeaseLocked(id, owner, token, now)
	if err != nil {
		q.mu.Unlock()
		return Job{}, err
	}
	j.LeaseExpiresUnixNano = now.Add(ttl).UnixNano()
	out := j.clone()
	seq := q.seq
	q.mu.Unlock()
	if err := q.syncTo(seq); err != nil {
		return Job{}, err
	}
	return out, nil
}

// liveLeaseLocked is leasedLocked plus the deadline (see Heartbeat).
func (q *Queue) liveLeaseLocked(id, owner, token string, now time.Time) (*Job, error) {
	j, err := q.leasedLocked(id, owner, token)
	if err == nil && j.LeaseExpiresUnixNano <= now.UnixNano() {
		err = fmt.Errorf("%w: job %s lease past its deadline", ErrLeaseExpired, id)
	}
	return j, err
}

// Progress appends one event of the lease holder's own to the job's
// history: kind becomes the event's Type and data its Data. It is fenced
// like Heartbeat. Its WAL record is not fsync'd on its own: the holder's
// next synced mutation (a heartbeat, the completion) covers it, and
// until then a crash may drop it. Readers see it at once.
func (q *Queue) Progress(id, owner, token, kind string, data json.RawMessage) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return errClosed
	}
	if _, err := q.liveLeaseLocked(id, owner, token, time.Now()); err != nil {
		return err
	}
	return q.transitionLocked(id, walRecord{Op: "progress", Kind: kind, Data: append(json.RawMessage(nil), data...)})
}

// CompleteLease moves a leased job to done, fenced by the token.
func (q *Queue) CompleteLease(id, owner, token string, result json.RawMessage) error {
	return q.finishLease(id, owner, token, StateDone, append(json.RawMessage(nil), result...), "")
}

// FailLease moves a leased job to failed, fenced by the token.
func (q *Queue) FailLease(id, owner, token, msg string) error {
	return q.finishLease(id, owner, token, StateFailed, nil, msg)
}

func (q *Queue) finishLease(id, owner, token string, st State, result json.RawMessage, msg string) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return errClosed
	}
	if _, err := q.leasedLocked(id, owner, token); err != nil {
		q.mu.Unlock()
		return err
	}
	// Deliberately no deadline check here: a completion racing its own
	// expiry wins as long as it lands before the sweep requeues the job.
	// The token is the fence; the deadline only arms the sweep.
	err := q.transitionLocked(id, walRecord{Op: "state", State: st, Result: result, Error: msg})
	seq := q.seq
	q.mu.Unlock()
	if err != nil {
		return err
	}
	return q.syncTo(seq)
}

// ExpireLeases requeues every leased job whose deadline is at or before
// now, attempt count intact — the owner is presumed dead. The returned jobs are snapshots from before the requeue, so the
// caller sees who held each lease and when it lapsed.
func (q *Queue) ExpireLeases(now time.Time) ([]Job, error) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil, errClosed
	}
	deadline := now.UnixNano()
	var lapsed []Job
	for _, j := range q.sortedLocked(func(j *Job) bool {
		return j.State.InFlight() && j.LeaseToken != "" && j.LeaseExpiresUnixNano <= deadline
	}) {
		lapsed = append(lapsed, j.clone())
		if err := q.transitionLocked(j.ID, walRecord{Op: "expire"}); err != nil {
			q.mu.Unlock()
			return lapsed, err
		}
		q.expired++
	}
	seq := q.seq
	q.mu.Unlock()
	if len(lapsed) == 0 {
		return nil, nil
	}
	if err := q.syncTo(seq); err != nil {
		return lapsed, err
	}
	q.wake()
	return lapsed, nil
}

// transitionLocked stamps, applies and writes one mutation record. The
// caller makes it durable with syncTo(q.seq) after releasing q.mu.
func (q *Queue) transitionLocked(id string, rec walRecord) error {
	q.seq++
	rec.Seq, rec.ID = q.seq, id
	if rec.At == 0 {
		rec.At = time.Now().UnixNano()
	}
	if err := q.applyLocked(rec); err != nil {
		return err
	}
	close(q.changed)
	q.changed = make(chan struct{})
	return q.appendLocked(rec)
}

// Get returns a copy of the job, if retained.
func (q *Queue) Get(id string) (Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, false
	}
	return j.clone(), true
}

// Jobs returns copies of every retained job, in submission order.
func (q *Queue) Jobs() []Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Job, 0, len(q.jobs))
	for _, j := range q.sortedLocked(nil) {
		out = append(out, j.clone())
	}
	return out
}

// LeasesByOwner counts the active leases each worker holds.
func (q *Queue) LeasesByOwner() map[string]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[string]int)
	for _, j := range q.jobs {
		if j.State.InFlight() && j.LeaseToken != "" {
			out[j.LeaseOwner]++
		}
	}
	return out
}

// StatsSnapshot counts jobs by state.
func (q *Queue) StatsSnapshot() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := Stats{
		Capacity:    q.cfg.Capacity,
		Submitted:   q.submitted,
		Deduped:     q.deduped,
		Requeued:    q.requeued,
		Compactions: q.compactions,
		Expired:     q.expired,
	}
	for _, j := range q.jobs {
		switch j.State {
		case StateSubmitted:
			st.Pending++
		case StateRunning:
			st.Running++
			if j.LeaseToken != "" {
				st.Leased++
			}
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		case StateCancelled:
			st.Cancelled++
		}
		if j.Recovered && !j.State.Terminal() {
			st.Recovered++
		}
	}
	return st
}

// RegisterMetrics wires the queue into a metrics registry: backlog
// gauges read live from StatsSnapshot, cumulative submit /
// dedup / requeue / compaction counters, and WAL append + fsync latency
// histograms observed on every durable transition. A nil registry is a
// no-op (the histograms stay nil, which Observe treats as disabled).
func (q *Queue) RegisterMetrics(r *metrics.Registry) {
	if r == nil {
		return
	}
	r.GaugeFunc("dramdig_queue_depth", "Jobs waiting in the backlog (state submitted).", nil,
		func() float64 { return float64(q.StatsSnapshot().Pending) })
	r.GaugeFunc("dramdig_queue_running", "Jobs held by a worker lease (state running).", nil,
		func() float64 { return float64(q.StatsSnapshot().Running) })
	r.GaugeFunc("dramdig_queue_capacity", "Configured pending-backlog capacity.", nil,
		func() float64 { return float64(q.StatsSnapshot().Capacity) })
	r.CounterFunc("dramdig_queue_submitted_total", "Jobs accepted by Submit.", nil,
		func() float64 { return float64(q.StatsSnapshot().Submitted) })
	r.CounterFunc("dramdig_queue_deduped_total", "Submissions answered by an idempotency-key match.", nil,
		func() float64 { return float64(q.StatsSnapshot().Deduped) })
	r.CounterFunc("dramdig_queue_requeued_total", "Interrupted jobs re-queued at recovery.", nil,
		func() float64 { return float64(q.StatsSnapshot().Requeued) })
	r.CounterFunc("dramdig_queue_compactions_total", "Journal compactions.", nil,
		func() float64 { return float64(q.StatsSnapshot().Compactions) })
	walBuckets := metrics.ExpBuckets(10e-6, 4, 10) // 10µs .. ~2.6s
	q.mu.Lock()
	q.walAppend = r.Histogram("dramdig_wal_append_seconds",
		"WAL append latency (encode + write) per record; the fsync is group-committed separately.", walBuckets, nil)
	q.walFsync = r.Histogram("dramdig_wal_fsync_seconds",
		"WAL fsync latency per group commit (one flush may cover many records).", walBuckets, nil)
	q.leaseWait = r.Histogram("dramdig_queue_lease_wait_seconds",
		"Wall-clock wait from submission to first lease, from persisted submit stamps (restart-safe).",
		metrics.ExpBuckets(1e-3, 4, 12), nil) // 1ms .. ~4.7h
	q.mu.Unlock()
}

// Ready is signaled (capacity-1 channel) whenever pending work may have
// appeared: after Submit, after a lease expiry requeued work, after
// Open recovered a backlog, and after a Lease that left work pending.
// Idle workers select on it instead of polling.
func (q *Queue) Ready() <-chan struct{} { return q.ready }

// Changed returns a channel closed by the next applied transition of
// any job. A reader takes it before reading the state it watches, so
// no transition can slip between the read and the wait.
func (q *Queue) Changed() <-chan struct{} {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.changed
}

func (q *Queue) wake() {
	select {
	case q.ready <- struct{}{}:
	default:
	}
}

// evictTerminalLocked drops the oldest terminal jobs past KeepTerminal.
// Eviction is a pure function of job state, so WAL replay converges on
// the same retained set without eviction records.
func (q *Queue) evictTerminalLocked() {
	terminal := q.sortedLocked(func(j *Job) bool { return j.State.Terminal() })
	over := len(terminal) - q.cfg.KeepTerminal
	if over <= 0 {
		return
	}
	for _, j := range terminal[:over] {
		delete(q.jobs, j.ID)
		if j.IdempotencyKey != "" && q.byKey[j.IdempotencyKey] == j.ID {
			delete(q.byKey, j.IdempotencyKey)
		}
	}
}
