package storage

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// BlobStore is a log-structured, content-addressed blob store. Blobs live
// in append-only segment files (`NNNNNNNN.seg`) under a single directory,
// or, without a directory, in segments held in memory; an in-memory
// index maps key → (segment, offset). Deletes append a
// tombstone record and physical space is reclaimed by compaction, which
// rewrites a segment's live records into the active segment before
// removing the old file — the second phase of a crash-safe two-phase
// delete. Only the highest-numbered segment (the one being appended to at
// crash time) may carry a torn tail; any other bad record is reported as
// corruption (see readLog).
//
// Durability policy: individual Puts are not fsynced (matching the flat
// per-file layout this store replaced, which also relied on the OS to
// write back), but a segment is fsynced when it is sealed, before any
// compaction removes the records' previous home, and on Close. Only the
// steps that touch a file differ between the two media; the record
// format, index, LRU, sealing, compaction, the MaxBytes bound and Sweep
// are shared.
type BlobStore struct {
	mu   sync.Mutex
	dir  string // empty: segments live in memory
	opts Options
	// segBytes is the target segment size before the active segment is
	// sealed: segmentBytes, clamped to MaxBytes/4 (at least 4 KiB) when a
	// bound is set so eviction can always get under the bound.
	segBytes int64
	segs     map[uint64]*segment
	active   *segment
	f        *os.File // append handle for the active segment file
	index    map[string]*blobLoc
	lru      *list.List // front = most recently used; values are keys
	bytes    int64      // sum of segment sizes
	live     int64      // sum of live record bytes
	closed   bool

	stats SweepStats
}

// Options configures a BlobStore.
type Options struct {
	// Dir is the segment directory; created if absent. Empty keeps the
	// segments' bytes in memory, so nothing outlives the process.
	Dir string
	// MaxBytes bounds total segment bytes; 0 means unbounded.
	// When a Put pushes the store past the bound, least-recently-used
	// blobs are evicted and dead segments compacted until it fits.
	MaxBytes int64
}

// SweepStats are cumulative counters for GC activity since Open.
type SweepStats struct {
	Sweeps         uint64 // completed Sweep calls
	ReclaimedBlobs uint64 // blobs deleted because the reclaim callback said so
	ReclaimedBytes uint64 // their payload bytes
	Evicted        uint64 // blobs evicted to satisfy MaxBytes
	Compactions    uint64 // segment files rewritten or removed
}

type segment struct {
	id    uint64
	path  string // empty in memory
	data  []byte // the segment's bytes in memory; nil on disk
	bytes int64  // segment size (valid prefix)
	live  int64  // bytes of records whose key still points here
}

type blobLoc struct {
	seg      *segment
	off      int64 // data offset within the segment
	size     int64 // payload length
	recBytes int64 // full record footprint including header and crc
	elem     *list.Element
	at       time.Time // when the blob was written (scan time after reopen)
}

const (
	recBlob      = 'b'
	recTombstone = 't'
	// recJournal is an AppendLog record: no key, and a payload whose
	// meaning belongs to the log's owner.
	recJournal = 'j'

	segmentBytes = 1 << 20
	segSuffix    = ".seg"
)

// OpenBlobStore opens (creating if needed) the store at opts.Dir, scans
// all segments to rebuild the index, truncates a torn tail on the active
// segment, and fails on any other torn or corrupt record. With no
// directory it opens an empty store whose segments live in memory.
func OpenBlobStore(opts Options) (*BlobStore, error) {
	return openBlobStore(opts, segmentBytes)
}

// openBlobStore is OpenBlobStore with the target segment size given; the
// package's tests roll small segments through it.
func openBlobStore(opts Options, segBytes int64) (*BlobStore, error) {
	if opts.MaxBytes > 0 && segBytes > opts.MaxBytes/4 {
		segBytes = max(opts.MaxBytes/4, 4096)
	}
	bs := &BlobStore{
		dir:      opts.Dir,
		opts:     opts,
		segBytes: segBytes,
		segs:     make(map[uint64]*segment),
		index:    make(map[string]*blobLoc),
		lru:      list.New(),
	}
	var ids []uint64
	var err error
	if opts.Dir != "" {
		if err = os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("storage: mkdir: %w", err)
		}
		if ids, err = listSegmentIDs(opts.Dir); err != nil {
			return nil, err
		}
	}
	now := time.Now()
	for i, id := range ids {
		// Replay the segment into the index. Only the newest may end in
		// a torn record.
		s := &segment{id: id, path: segmentPath(opts.Dir, id)}
		s.bytes, err = readLog(s.path, i == len(ids)-1, func(off int64, typ byte, key string, data []byte, recLen int64) error {
			bs.unindexLocked(key)
			if typ == recBlob {
				bs.indexLocked(key, &blobLoc{seg: s, off: off + recLen - 4 - int64(len(data)), size: int64(len(data)), recBytes: recLen, at: now})
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if s.bytes == 0 && s.live == 0 {
			// Empty leftover (e.g. a fresh active segment from a prior
			// run that never received a record): drop it.
			if err := RemoveDurable(s.path); err != nil {
				return nil, err
			}
			continue
		}
		bs.segs[id] = s
		bs.bytes += s.bytes
	}
	// Resume appending to the newest segment if it still has room,
	// otherwise roll a fresh one.
	var newest *segment
	for _, s := range bs.segs {
		if newest == nil || s.id > newest.id {
			newest = s
		}
	}
	if newest != nil && newest.bytes < bs.segBytes {
		f, err := os.OpenFile(newest.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("storage: reopen segment: %w", err)
		}
		bs.active, bs.f = newest, f
	} else {
		next := uint64(1)
		if newest != nil {
			next = newest.id + 1
		}
		if err := bs.rollToLocked(next); err != nil {
			return nil, err
		}
	}
	return bs, nil
}

func segmentPath(dir string, id uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%08d%s", id, segSuffix))
}

func listSegmentIDs(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: read dir: %w", err)
	}
	var ids []uint64
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		var id uint64
		if _, err := fmt.Sscanf(strings.TrimSuffix(name, segSuffix), "%d", &id); err != nil {
			continue
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// appendRecord appends one record to dst. Wire format:
//
//	type(1) | keyLen uvarint | dataLen uvarint | key | data | crc32-IEEE(4, LE)
//
// The checksum covers everything before it. Segments and append logs
// share it, and readLog reads both.
func appendRecord(dst []byte, typ byte, key string, data []byte) []byte {
	start := len(dst)
	dst = append(dst, typ)
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = binary.AppendUvarint(dst, uint64(len(data)))
	dst = append(dst, key...)
	dst = append(dst, data...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// encodeRecord renders one segment record; dataOff is the offset of the
// payload within it.
func encodeRecord(typ byte, key string, data []byte) (rec []byte, dataOff int64) {
	rec = appendRecord(make([]byte, 0, 1+2*binary.MaxVarintLen64+len(key)+len(data)+4), typ, key, data)
	return rec, int64(len(rec) - len(data) - 4)
}

// readLog reads the log at path and hands fn each record in order: its
// offset, type, key, payload (aliasing the file's bytes) and length. It
// returns the length of the intact records. Segments and journals share
// one rule for a record that does not parse: when tail is set and no
// intact record starts after it, it is the write a crash tore, and
// readLog cuts it from the file so appends resume on a record boundary.
// Anywhere else it is corruption: readLog fails naming the file and the
// offset, and leaves the file as it is.
func readLog(path string, tail bool, fn func(off int64, typ byte, key string, data []byte, recLen int64) error) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("storage: read log: %w", err)
	}
	off := int64(0)
	for off < int64(len(data)) {
		typ, key, dataOff, dataLen, recLen, ok := parseRecord(data[off:])
		if !ok {
			if !tail || intactAfter(data[off+1:]) {
				return 0, fmt.Errorf("storage: corrupt log %s: torn record at offset %d", path, off)
			}
			if err := os.Truncate(path, off); err != nil {
				return 0, fmt.Errorf("storage: truncate torn tail: %w", err)
			}
			break
		}
		if err := fn(off, typ, key, data[off+dataOff:off+dataOff+dataLen], recLen); err != nil {
			return 0, err
		}
		off += recLen
	}
	return off, nil
}

// intactAfter reports whether an intact record starts anywhere in b.
func intactAfter(b []byte) bool {
	for i := range b {
		if _, _, _, _, _, ok := parseRecord(b[i:]); ok {
			return true
		}
	}
	return false
}

// parseRecord decodes one record from b. ok is false when the bytes do
// not form a complete, checksum-valid record.
func parseRecord(b []byte) (typ byte, key string, dataOff, dataLen, recLen int64, ok bool) {
	if len(b) < 1 {
		return 0, "", 0, 0, 0, false
	}
	typ = b[0]
	if typ != recBlob && typ != recTombstone && typ != recJournal {
		return typ, "", 0, 0, 0, false
	}
	p := 1
	keyLen, n := binary.Uvarint(b[p:])
	if n <= 0 {
		return 0, "", 0, 0, 0, false
	}
	p += n
	payloadLen, n := binary.Uvarint(b[p:])
	if n <= 0 {
		return 0, "", 0, 0, 0, false
	}
	p += n
	const maxLen = 1 << 31
	if keyLen > maxLen || payloadLen > maxLen {
		return 0, "", 0, 0, 0, false
	}
	end := int64(p) + int64(keyLen) + int64(payloadLen) + 4
	if end > int64(len(b)) {
		return 0, "", 0, 0, 0, false
	}
	body := b[:end-4]
	want := binary.LittleEndian.Uint32(b[end-4 : end])
	if crc32.ChecksumIEEE(body) != want {
		return 0, "", 0, 0, 0, false
	}
	key = string(b[p : p+int(keyLen)])
	return typ, key, int64(p) + int64(keyLen), int64(payloadLen), end, true
}

// rollToLocked seals the current active segment (fsync + close) and
// starts a fresh one with the given id.
func (bs *BlobStore) rollToLocked(id uint64) error {
	if bs.f != nil {
		if err := bs.f.Sync(); err != nil {
			return fmt.Errorf("storage: seal segment: %w", err)
		}
		if err := bs.f.Close(); err != nil {
			return fmt.Errorf("storage: close segment: %w", err)
		}
		bs.f = nil
	}
	s := &segment{id: id}
	if bs.dir != "" {
		s.path = segmentPath(bs.dir, id)
		f, err := os.OpenFile(s.path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("storage: create segment: %w", err)
		}
		if err := SyncDir(bs.dir); err != nil {
			f.Close()
			return err
		}
		bs.f = f
	}
	bs.segs[id] = s
	bs.active = s
	return nil
}

// syncLocked makes the active segment's appends durable. Segments in
// memory have nothing to sync.
func (bs *BlobStore) syncLocked() error {
	if bs.dir == "" {
		return nil
	}
	return bs.f.Sync()
}

// appendLocked writes rec to the active segment, rolling first if the
// record would push it past the target size. Returns the segment offset
// the record starts at.
func (bs *BlobStore) appendLocked(rec []byte) (int64, error) {
	if bs.active.bytes > 0 && bs.active.bytes+int64(len(rec)) > bs.segBytes {
		if err := bs.rollToLocked(bs.active.id + 1); err != nil {
			return 0, err
		}
	}
	off := bs.active.bytes
	if bs.dir == "" {
		bs.active.data = append(bs.active.data, rec...)
	} else if _, err := bs.f.Write(rec); err != nil {
		return 0, fmt.Errorf("storage: append: %w", err)
	}
	bs.active.bytes += int64(len(rec))
	bs.bytes += int64(len(rec))
	return off, nil
}

// Put stores data under key, replacing any previous value.
func (bs *BlobStore) Put(key string, data []byte) error {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if bs.closed {
		return fmt.Errorf("storage: blob store is closed")
	}
	if key == "" {
		return fmt.Errorf("storage: empty blob key")
	}
	if err := bs.putLocked(key, data, time.Now()); err != nil {
		return err
	}
	if bs.opts.MaxBytes > 0 && bs.bytes > bs.opts.MaxBytes {
		return bs.enforceBoundLocked()
	}
	return nil
}

func (bs *BlobStore) putLocked(key string, data []byte, at time.Time) error {
	rec, dataOff := encodeRecord(recBlob, key, data)
	off, err := bs.appendLocked(rec)
	if err != nil {
		return err
	}
	bs.unindexLocked(key)
	bs.indexLocked(key, &blobLoc{seg: bs.active, off: off + dataOff, size: int64(len(data)), recBytes: int64(len(rec)), at: at})
	return nil
}

// indexLocked makes loc key's live copy, the most recently used.
func (bs *BlobStore) indexLocked(key string, loc *blobLoc) {
	loc.elem = bs.lru.PushFront(key)
	bs.index[key] = loc
	loc.seg.live += loc.recBytes
	bs.live += loc.recBytes
}

// unindexLocked forgets key's live copy and returns it (nil when key is
// not live).
func (bs *BlobStore) unindexLocked(key string) *blobLoc {
	loc := bs.index[key]
	if loc != nil {
		loc.seg.live -= loc.recBytes
		bs.live -= loc.recBytes
		bs.lru.Remove(loc.elem)
		delete(bs.index, key)
	}
	return loc
}

// Get returns the blob stored under key in a buffer of its own, which no
// later append or compaction changes. ok reports whether the key is
// live; err is non-nil only for I/O failures.
func (bs *BlobStore) Get(key string) (data []byte, ok bool, err error) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	loc, found := bs.index[key]
	if !found {
		return nil, false, nil
	}
	bs.lru.MoveToFront(loc.elem)
	buf := make([]byte, loc.size)
	if bs.dir == "" {
		copy(buf, loc.seg.data[loc.off:])
		return buf, true, nil
	}
	f, err := os.Open(loc.seg.path)
	if err != nil {
		return nil, false, fmt.Errorf("storage: open segment: %w", err)
	}
	defer f.Close()
	if _, err := f.ReadAt(buf, loc.off); err != nil {
		return nil, false, fmt.Errorf("storage: read blob: %w", err)
	}
	return buf, true, nil
}

// Stat reports whether key is live and its payload size, without
// reading the segment or touching the LRU order.
func (bs *BlobStore) Stat(key string) (size int64, ok bool) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	loc, found := bs.index[key]
	if !found {
		return 0, false
	}
	return loc.size, true
}

// Delete removes key by appending a tombstone (phase one of the
// two-phase delete; compaction later reclaims the bytes). Deleting a
// missing key is a no-op.
func (bs *BlobStore) Delete(key string) error {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if bs.closed {
		return fmt.Errorf("storage: blob store is closed")
	}
	_, err := bs.deleteLocked(key)
	return err
}

func (bs *BlobStore) deleteLocked(key string) (int64, error) {
	if _, ok := bs.index[key]; !ok {
		return 0, nil
	}
	rec, _ := encodeRecord(recTombstone, key, nil)
	if _, err := bs.appendLocked(rec); err != nil {
		return 0, err
	}
	return bs.unindexLocked(key).size, nil
}

// Len returns the number of live blobs.
func (bs *BlobStore) Len() int {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return len(bs.index)
}

// DiskBytes returns the total size of all segments, in files or in
// memory.
func (bs *BlobStore) DiskBytes() int64 {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return bs.bytes
}

// Segments returns the number of segments.
func (bs *BlobStore) Segments() int {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return len(bs.segs)
}

// Stats returns cumulative GC counters.
func (bs *BlobStore) Stats() SweepStats {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return bs.stats
}

// Close fsyncs and closes the active segment file, if the store has a
// directory. Further mutations fail.
func (bs *BlobStore) Close() error {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if bs.closed {
		return nil
	}
	bs.closed = true
	if bs.f != nil {
		if err := bs.f.Sync(); err != nil {
			bs.f.Close()
			return fmt.Errorf("storage: sync on close: %w", err)
		}
		if err := bs.f.Close(); err != nil {
			return fmt.Errorf("storage: close: %w", err)
		}
		bs.f = nil
	}
	return nil
}

// enforceBoundLocked brings total segment bytes back under Options.MaxBytes
// by evicting least-recently-used blobs (with hysteresis, to 3/4 of the
// bound) and then compacting segments until they fit.
func (bs *BlobStore) enforceBoundLocked() error {
	target := bs.opts.MaxBytes
	lowWater := target - target/4
	for bs.live > lowWater {
		back := bs.lru.Back()
		if back == nil {
			break
		}
		if _, err := bs.deleteLocked(back.Value.(string)); err != nil {
			return err
		}
		bs.stats.Evicted++
	}
	return bs.compactToLocked(target)
}

// compactToLocked rewrites or removes dead-heavy segments until total
// segment bytes are at most target (0 compacts everything worth
// compacting).
func (bs *BlobStore) compactToLocked(target int64) error {
	for {
		if target > 0 && bs.bytes <= target {
			return nil
		}
		// Pick the sealed segment with the most dead bytes.
		var victim *segment
		for _, s := range bs.segs {
			if s == bs.active {
				continue
			}
			if victim == nil || s.bytes-s.live > victim.bytes-victim.live {
				victim = s
			}
		}
		if victim == nil || victim.bytes == victim.live {
			// Nothing dead in any sealed segment. If the active segment
			// carries dead bytes, seal it so it becomes compactable.
			if bs.active != nil && bs.active.bytes > bs.active.live && bs.active.bytes > 0 {
				if err := bs.rollToLocked(bs.active.id + 1); err != nil {
					return err
				}
				continue
			}
			return nil // fully compact already
		}
		if err := bs.compactSegmentLocked(victim); err != nil {
			return err
		}
	}
}

// compactSegmentLocked moves every live record out of s into the active
// segment, fsyncs the copies, then removes s — phase two of the
// two-phase delete. A crash before the remove leaves duplicate records;
// replay-on-open is idempotent (later segments win).
func (bs *BlobStore) compactSegmentLocked(s *segment) error {
	var keys []string
	for k, loc := range bs.index {
		if loc.seg == s {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) > 0 {
		data := s.data
		if bs.dir != "" {
			var err error
			if data, err = os.ReadFile(s.path); err != nil {
				return fmt.Errorf("storage: compact read: %w", err)
			}
		}
		for _, k := range keys {
			loc := bs.index[k]
			if loc.off+loc.size > int64(len(data)) {
				return fmt.Errorf("storage: compact: blob %q out of range", k)
			}
			payload := data[loc.off : loc.off+loc.size]
			rec, dataOff := encodeRecord(recBlob, k, payload)
			off, err := bs.appendLocked(rec)
			if err != nil {
				return err
			}
			// Move the index entry; LRU position and timestamp persist.
			s.live -= loc.recBytes
			bs.live -= loc.recBytes
			loc.seg = bs.active
			loc.off = off + dataOff
			loc.recBytes = int64(len(rec))
			bs.active.live += loc.recBytes
			bs.live += loc.recBytes
		}
		// The moved copies must be durable before the originals vanish.
		if err := bs.syncLocked(); err != nil {
			return fmt.Errorf("storage: compact sync: %w", err)
		}
	}
	if bs.dir != "" {
		if err := RemoveDurable(s.path); err != nil {
			return err
		}
	}
	bs.bytes -= s.bytes
	delete(bs.segs, s.id)
	bs.stats.Compactions++
	return nil
}
