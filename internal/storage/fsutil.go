// Package storage is the shared durability layer under the result store
// and the job queue. It owns every temp-file/rename/fsync idiom in the
// tree: callers describe *what* must survive a crash (an atomic rewrite,
// an append-only log, a content-addressed blob) and storage decides how
// the bytes reach disk. Segments and append logs are one record format,
// read by one reader with one torn-tail rule.
package storage

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic durably replaces path with what write produces, using
// the temp-file → fsync → rename → dir-fsync idiom. write sees a
// buffered writer, so a caller can stream its content in small pieces.
// After it returns nil, a crash at any point leaves either the old
// content or the new content at path, never a torn mix; an error from
// write leaves the old content.
func WriteFileAtomic(path string, perm os.FileMode, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("storage: create temp: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	if err := tmp.Chmod(perm); err != nil {
		cleanup()
		return fmt.Errorf("storage: chmod temp: %w", err)
	}
	bw := bufio.NewWriterSize(tmp, 64<<10)
	if err := write(bw); err != nil {
		cleanup()
		return err
	}
	if err := bw.Flush(); err != nil {
		cleanup()
		return fmt.Errorf("storage: write temp: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("storage: fsync temp: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("storage: close temp: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("storage: rename: %w", err)
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so that a rename, create, or remove inside
// it is durable. Errors from platforms that refuse to fsync directories
// are reported as-is; callers on Linux can treat any error as fatal.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("storage: open dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("storage: fsync dir %s: %w", dir, err)
	}
	return nil
}

// RemoveDurable removes path and fsyncs its parent directory so the
// deletion survives a crash. A missing file is not an error.
func RemoveDurable(path string) error {
	if err := os.Remove(path); err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("storage: remove: %w", err)
	}
	return SyncDir(filepath.Dir(path))
}

// AppendLog is an append-only log of checksummed records in the segment
// format (see appendRecord), with explicit sync points — the shape a
// write-ahead log wants. ReadLog reads it back.
type AppendLog struct {
	f   *os.File
	buf []byte // the record being appended, reused
}

// OpenAppendLog opens the log at path for appending. The log must exist:
// WriteFileAtomic creates it, durably, with its first records.
func OpenAppendLog(path string) (*AppendLog, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, fmt.Errorf("storage: open log: %w", err)
	}
	return &AppendLog{f: f}, nil
}

// Append writes data to the log as one record, in one write, so a crash
// can tear only the last record. It is not durable until Sync.
func (l *AppendLog) Append(data []byte) error {
	l.buf = AppendRecord(l.buf[:0], data)
	_, err := l.f.Write(l.buf)
	return err
}

// Sync makes all previously appended records durable.
func (l *AppendLog) Sync() error { return l.f.Sync() }

// Close closes the underlying file without an implicit sync.
func (l *AppendLog) Close() error { return l.f.Close() }

// AppendRecord appends data to dst framed as one AppendLog record, for a
// caller that writes a whole log at once under WriteFileAtomic.
func AppendRecord(dst, data []byte) []byte { return appendRecord(dst, recJournal, "", data) }

// ReadLog reads the log at path, passing each record's payload to fn in
// order; the payload is valid only during the call. A torn last record is
// cut from the file, and any other bad record fails ReadLog with the file
// and its offset (see readLog). A missing file fails with an error that
// matches fs.ErrNotExist.
func ReadLog(path string, fn func(data []byte) error) error {
	_, err := readLog(path, true, func(_ int64, _ byte, _ string, data []byte, _ int64) error { return fn(data) })
	return err
}
