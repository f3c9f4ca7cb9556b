package wal

import (
	"io"
	"os"
	"path/filepath"
)

// File is the subset of *os.File the WAL needs. Write appends at the
// current offset; Sync must not return until the data is durable.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Sync() error
}

// FS is the filesystem the WAL writes through. Names are relative to the
// FS root (the WAL directory). Implementations must make Rename atomic
// with respect to crashes — either the old or the new file survives, never
// a mix — matching POSIX rename semantics. The fault-injection harness
// (internal/faultfs) implements FS in memory with injectable failures.
type FS interface {
	// Create opens name for writing, truncating it if it exists.
	Create(name string) (File, error)
	// Open opens name read-only. It returns an error satisfying
	// errors.Is(err, os.ErrNotExist) when the file is absent.
	Open(name string) (File, error)
	// OpenAppend opens name for appending, creating it if absent.
	OpenAppend(name string) (File, error)
	// Rename atomically replaces newname with oldname. It returns once
	// the rename itself is durable.
	Rename(oldname, newname string) error
	// Remove deletes name; removing a missing file is not an error.
	Remove(name string) error
	// Truncate cuts name down to size bytes.
	Truncate(name string, size int64) error
	// Size reports the current length of name in bytes.
	Size(name string) (int64, error)
}

// osDir is the production FS: a directory on the real filesystem.
type osDir struct{ root string }

// OSDir returns an FS rooted at dir, creating the directory if needed.
func OSDir(dir string) (FS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return osDir{root: dir}, nil
}

func (d osDir) path(name string) string { return filepath.Join(d.root, name) }

func (d osDir) Create(name string) (File, error) { return os.Create(d.path(name)) }

func (d osDir) Open(name string) (File, error) { return os.Open(d.path(name)) }

func (d osDir) OpenAppend(name string) (File, error) {
	return os.OpenFile(d.path(name), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
}

// Rename renames within the directory and then fsyncs the directory, so
// the new entry is durable before the caller's next write: Compact's log
// truncate must not reach the disk ahead of its snapshot rename, and
// WriteManifest's publish must survive a power loss.
func (d osDir) Rename(oldname, newname string) error {
	if err := os.Rename(d.path(oldname), d.path(newname)); err != nil {
		return err
	}
	dir, err := os.Open(d.root)
	if err != nil {
		return err
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	return err
}

func (d osDir) Remove(name string) error {
	err := os.Remove(d.path(name))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

func (d osDir) Truncate(name string, size int64) error {
	return os.Truncate(d.path(name), size)
}

func (d osDir) Size(name string) (int64, error) {
	fi, err := os.Stat(d.path(name))
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// Sub implements SubdirFS: shard subdirectories are real directories on
// disk, created on first use.
func (d osDir) Sub(dir string) (FS, error) {
	return OSDir(filepath.Join(d.root, dir))
}
