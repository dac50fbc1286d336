package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func openTest(t *testing.T, dir string, opts Options) *BlobStore {
	t.Helper()
	return openSegTest(t, dir, opts, segmentBytes)
}

// openSegTest is openTest with segments sealed at segBytes.
func openSegTest(t *testing.T, dir string, opts Options, segBytes int64) *BlobStore {
	t.Helper()
	opts.Dir = dir
	bs, err := openBlobStore(opts, segBytes)
	if err != nil {
		t.Fatalf("OpenBlobStore: %v", err)
	}
	t.Cleanup(func() { bs.Close() })
	return bs
}

// media runs fn once over a segment directory and once with the
// segments in memory.
func media(t *testing.T, fn func(t *testing.T, dir string)) {
	t.Run("disk", func(t *testing.T) { fn(t, t.TempDir()) })
	t.Run("memory", func(t *testing.T) { fn(t, "") })
}

func mustGet(t *testing.T, bs *BlobStore, key string) []byte {
	t.Helper()
	data, ok, err := bs.Get(key)
	if err != nil {
		t.Fatalf("Get(%q): %v", key, err)
	}
	if !ok {
		t.Fatalf("Get(%q): missing", key)
	}
	return data
}

func TestBlobRoundtrip(t *testing.T) {
	media(t, func(t *testing.T, dir string) {
		bs := openTest(t, dir, Options{})
		if err := bs.Put("result/aa", []byte("hello")); err != nil {
			t.Fatalf("Put: %v", err)
		}
		got := mustGet(t, bs, "result/aa")
		if string(got) != "hello" {
			t.Fatalf("got %q", got)
		}
		// What Get returns is the caller's own copy.
		got[0] = 'J'
		if again := mustGet(t, bs, "result/aa"); string(again) != "hello" {
			t.Fatalf("a caller's write reached the store: %q", again)
		}
		if size, ok := bs.Stat("result/aa"); !ok || size != 5 {
			t.Fatalf("Stat = %d,%v", size, ok)
		}
		if _, ok, _ := bs.Get("result/bb"); ok {
			t.Fatal("phantom key")
		}
		// Replace wins.
		if err := bs.Put("result/aa", []byte("world!")); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if got := mustGet(t, bs, "result/aa"); string(got) != "world!" {
			t.Fatalf("after replace got %q", got)
		}
		if bs.Len() != 1 {
			t.Fatalf("Len = %d", bs.Len())
		}
		if err := bs.Delete("result/aa"); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		if _, ok, _ := bs.Get("result/aa"); ok {
			t.Fatal("key survived delete")
		}
	})
}

func TestBlobSegmentRollAndReopen(t *testing.T) {
	dir := t.TempDir()
	bs := openSegTest(t, dir, Options{}, 512)
	payload := bytes.Repeat([]byte("x"), 100)
	for i := 0; i < 40; i++ {
		if err := bs.Put(fmt.Sprintf("k%02d", i), payload); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if bs.Segments() < 3 {
		t.Fatalf("expected multiple segments, got %d", bs.Segments())
	}
	if err := bs.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	re := openSegTest(t, dir, Options{}, 512)
	if re.Len() != 40 {
		t.Fatalf("reopen Len = %d", re.Len())
	}
	for i := 0; i < 40; i++ {
		if got := mustGet(t, re, fmt.Sprintf("k%02d", i)); !bytes.Equal(got, payload) {
			t.Fatalf("blob %d mismatch after reopen", i)
		}
	}
}

func TestBlobTornTailTruncatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	bs := openTest(t, dir, Options{})
	if err := bs.Put("alive", []byte("data")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := bs.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Simulate a crash mid-append: garbage on the tail of the newest segment.
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	newest := segs[len(segs)-1]
	f, err := os.OpenFile(newest, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn, _ := encodeRecord(recBlob, "torn", []byte("partial-record"))
	if _, err := f.Write(torn[:len(torn)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re := openTest(t, dir, Options{})
	if got := mustGet(t, re, "alive"); string(got) != "data" {
		t.Fatalf("lost blob across torn tail: %q", got)
	}
	if _, ok, _ := re.Get("torn"); ok {
		t.Fatal("torn record must not surface")
	}
	// The torn bytes must be gone so appends land on a clean boundary.
	if err := re.Put("after", []byte("ok")); err != nil {
		t.Fatalf("Put after truncate: %v", err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2 := openTest(t, dir, Options{})
	if string(mustGet(t, re2, "after")) != "ok" {
		t.Fatal("append after torn-tail truncate did not survive")
	}
}

func TestBlobTornSealedSegmentIsCorruption(t *testing.T) {
	dir := t.TempDir()
	bs := openSegTest(t, dir, Options{}, 256)
	payload := bytes.Repeat([]byte("y"), 100)
	for i := 0; i < 10; i++ {
		if err := bs.Put(fmt.Sprintf("k%d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	if bs.Segments() < 2 {
		t.Fatalf("need a sealed segment, have %d", bs.Segments())
	}
	if err := bs.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	// Flip a byte in the middle of the oldest (sealed) segment.
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openBlobStore(Options{Dir: dir}, 256); err == nil {
		t.Fatal("corrupt sealed segment must fail Open")
	} else if !strings.Contains(err.Error(), "torn record") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestBlobCorruptRecordBeforeIntactIsRefused: a bad record in the newest
// segment with an intact record after it is corruption, not a torn
// tail. Open fails naming the segment and the offset, and leaves the
// file as it was, the intact record after the bad one included.
func TestBlobCorruptRecordBeforeIntactIsRefused(t *testing.T) {
	dir := t.TempDir()
	bs := openTest(t, dir, Options{})
	for _, k := range []string{"a", "b", "c"} {
		if err := bs.Put(k, []byte("value-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := bs.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(segs) != 1 {
		t.Fatalf("want one segment, have %d", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := encodeRecord(recBlob, "a", []byte("value-a"))
	data[len(rec)+len(rec)/2] ^= 0xff // inside b's record
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenBlobStore(Options{Dir: dir})
	if err == nil {
		t.Fatal("a corrupt record before an intact one opened")
	}
	if want := fmt.Sprintf("%s: torn record at offset %d", segs[0], len(rec)); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %q", err, want)
	}
	if after, _ := os.ReadFile(segs[0]); !bytes.Equal(after, data) {
		t.Fatalf("refused segment changed from %d to %d bytes", len(data), len(after))
	}
}

func TestBlobTombstoneSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	bs := openTest(t, dir, Options{})
	if err := bs.Put("gone", []byte("bye")); err != nil {
		t.Fatal(err)
	}
	if err := bs.Put("kept", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	// Phase one only: tombstone appended, no compaction before "crash".
	if err := bs.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	if err := bs.Close(); err != nil {
		t.Fatal(err)
	}
	re := openTest(t, dir, Options{})
	if _, ok, _ := re.Get("gone"); ok {
		t.Fatal("tombstoned blob resurrected on reopen")
	}
	if string(mustGet(t, re, "kept")) != "hi" {
		t.Fatal("live blob lost")
	}
}

func TestBlobDuplicateRecordsAfterInterruptedCompaction(t *testing.T) {
	// A crash between compaction's copy-into-active and the removal of
	// the old segment leaves the same key in two segments. Replay must
	// keep exactly one live copy (the later one) and not error.
	dir := t.TempDir()
	bs := openTest(t, dir, Options{})
	if err := bs.Put("dup", []byte("old-copy")); err != nil {
		t.Fatal(err)
	}
	if err := bs.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	newest := segs[len(segs)-1]
	var maxID uint64
	fmt.Sscanf(strings.TrimSuffix(filepath.Base(newest), segSuffix), "%d", &maxID)
	rec, _ := encodeRecord(recBlob, "dup", []byte("new-copy"))
	if err := os.WriteFile(segmentPath(dir, maxID+1), rec, 0o644); err != nil {
		t.Fatal(err)
	}
	re := openTest(t, dir, Options{})
	if re.Len() != 1 {
		t.Fatalf("Len = %d, want 1", re.Len())
	}
	if got := mustGet(t, re, "dup"); string(got) != "new-copy" {
		t.Fatalf("later copy must win, got %q", got)
	}
}

func TestBlobMaxBytesEvictsLRU(t *testing.T) {
	media(t, func(t *testing.T, dir string) {
		bs := openTest(t, dir, Options{MaxBytes: 64 << 10})
		payload := bytes.Repeat([]byte("z"), 1024)
		for i := 0; i < 200; i++ {
			if err := bs.Put(fmt.Sprintf("blob/%03d", i), payload); err != nil {
				t.Fatalf("Put %d: %v", i, err)
			}
			if db := bs.DiskBytes(); db > 64<<10 {
				t.Fatalf("disk bytes %d over bound after put %d", db, i)
			}
		}
		if bs.Len() >= 200 {
			t.Fatal("nothing evicted")
		}
		if st := bs.Stats(); st.Evicted == 0 {
			t.Fatal("evicted counter did not move")
		}
		// Most recent blob must still be there; the oldest must be gone.
		if _, ok, _ := bs.Get("blob/199"); !ok {
			t.Fatal("most recent blob evicted")
		}
		if _, ok, _ := bs.Get("blob/000"); ok {
			t.Fatal("oldest blob survived the bound")
		}
		if dir == "" {
			return
		}
		// The bound must hold across a reopen too.
		if err := bs.Close(); err != nil {
			t.Fatal(err)
		}
		re := openTest(t, dir, Options{MaxBytes: 64 << 10})
		if db := re.DiskBytes(); db > 64<<10 {
			t.Fatalf("disk bytes %d over bound after reopen", db)
		}
		if _, ok, _ := re.Get("blob/199"); !ok {
			t.Fatal("recent blob lost across reopen")
		}
	})
}

func TestBlobSweepReclaimsAndCompacts(t *testing.T) {
	media(t, func(t *testing.T, dir string) {
		bs := openSegTest(t, dir, Options{}, 2048)
		payload := bytes.Repeat([]byte("w"), 512)
		for i := 0; i < 20; i++ {
			prefix := "keep/"
			if i%2 == 0 {
				prefix = "dead/"
			}
			if err := bs.Put(fmt.Sprintf("%s%02d", prefix, i), payload); err != nil {
				t.Fatal(err)
			}
		}
		before := bs.DiskBytes()
		res, err := bs.Sweep(context.Background(), func(key string, age time.Duration) bool {
			return strings.HasPrefix(key, "dead/")
		})
		if err != nil {
			t.Fatalf("Sweep: %v", err)
		}
		if res.ReclaimedBlobs != 10 {
			t.Fatalf("reclaimed %d blobs, want 10", res.ReclaimedBlobs)
		}
		if res.ReclaimedBytes != 10*512 {
			t.Fatalf("reclaimed %d bytes", res.ReclaimedBytes)
		}
		if bs.DiskBytes() >= before {
			t.Fatalf("compaction did not shrink disk: %d -> %d", before, bs.DiskBytes())
		}
		for i := 1; i < 20; i += 2 {
			if got := mustGet(t, bs, fmt.Sprintf("keep/%02d", i)); !bytes.Equal(got, payload) {
				t.Fatalf("keep/%02d changed by sweep", i)
			}
		}
		if st := bs.Stats(); st.Sweeps != 1 || st.ReclaimedBlobs != 10 || st.Compactions == 0 {
			t.Fatalf("stats = %+v", st)
		}
		if dir == "" {
			return
		}
		// Everything must still be intact after a reopen (phase two durable).
		if err := bs.Close(); err != nil {
			t.Fatal(err)
		}
		re := openSegTest(t, dir, Options{}, 2048)
		if re.Len() != 10 {
			t.Fatalf("reopen Len = %d, want 10", re.Len())
		}
	})
}

func TestBlobSweepGracePeriod(t *testing.T) {
	bs := openTest(t, t.TempDir(), Options{})
	if err := bs.Put("young", []byte("x")); err != nil {
		t.Fatal(err)
	}
	_, err := bs.Sweep(context.Background(), func(key string, age time.Duration) bool {
		return age > time.Hour // nothing is that old
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := bs.Get("young"); !ok {
		t.Fatal("blob inside grace period reclaimed")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	put := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
	}
	if err := WriteFileAtomic(path, 0o644, put("v1")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, 0o644, put("v2-longer")); err != nil {
		t.Fatal(err)
	}
	// A failing writer leaves the old content in place.
	sentinel := errors.New("encode failed")
	if err := WriteFileAtomic(path, 0o644, func(io.Writer) error { return sentinel }); err != sentinel {
		t.Fatalf("failing writer: err=%v, want the writer's error", err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "v2-longer" {
		t.Fatalf("read back %q, %v", data, err)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("temp files left behind: %d entries", len(ents))
	}
}

func TestAppendLog(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "queue.log")
	if _, err := OpenAppendLog(path); err == nil {
		t.Fatal("opened a log that does not exist")
	}
	// A log starts as a whole file written at once, then grows by appends.
	if err := WriteFileAtomic(path, 0o644, func(w io.Writer) error {
		_, err := w.Write(AppendRecord(nil, []byte("one")))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	l, err := OpenAppendLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// A crash mid-append leaves part of a third record, which the reader
	// cuts from the file.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := AppendRecord(nil, []byte("three"))
	if _, err := f.Write(torn[:len(torn)-2]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var got []string
	if err := ReadLog(path, func(data []byte) error { got = append(got, string(data)); return nil }); err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, ",") != "one,two" {
		t.Fatalf("log = %q", got)
	}
	if after, _ := os.Stat(path); after.Size() != fi.Size() {
		t.Fatalf("torn record left the log at %d bytes, want %d", after.Size(), fi.Size())
	}
}
