package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// Manifest file names inside a sharded WAL base directory.
const (
	manifestName = "wal-manifest.json"
	manifestTmp  = "wal-manifest.tmp"
)

// ManifestVersion is the current manifest format version.
const ManifestVersion = 1

// RouteHashName identifies the product→shard routing function recorded in
// the manifest. A reader with a different routing function must refuse the
// directory: records in shard-NNN/ are only meaningful under the hash that
// put them there.
const RouteHashName = "fnv1a64"

// Manifest describes a WAL base directory: it holds wal-manifest.json plus
// one shard-NNN/ subdirectory per shard, each an independent WAL
// (snapshot.json, a binary checkpoint despite its name, + wal.log), at
// every shard count including one. The manifest pins the shard count and
// routing hash so a reopen with different parameters fails loudly instead
// of silently splitting products across the wrong logs. A directory
// without one is fresh, or holds the single-stream layout of earlier
// builds (HasLegacyState), which is refused.
type Manifest struct {
	Version int    `json:"version"`
	Shards  int    `json:"shards"`
	Hash    string `json:"hash"`
}

// ShardDir returns the subdirectory name for shard i ("shard-000", ...).
func ShardDir(i int) string { return fmt.Sprintf("shard-%03d", i) }

// ReadManifest reads the shard manifest from the base directory. A missing
// manifest returns (nil, nil).
func ReadManifest(fsys FS) (*Manifest, error) {
	f, err := fsys.Open(manifestName)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: open manifest: %w", err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("wal: read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("wal: decode manifest: %w", err)
	}
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("wal: manifest version %d not supported (want %d)", m.Version, ManifestVersion)
	}
	if m.Shards < 1 {
		return nil, fmt.Errorf("wal: manifest shard count %d invalid", m.Shards)
	}
	return &m, nil
}

// WriteManifest durably publishes the shard manifest (WriteFileAtomic).
// A crash leaves either no manifest (the directory reads as fresh) or a
// complete one.
func WriteManifest(fsys FS, m Manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("wal: encode manifest: %w", err)
	}
	return WriteFileAtomic(fsys, manifestTmp, manifestName, append(data, '\n'), "manifest")
}

// WriteFileAtomic publishes data as name: write it to tmp, fsync, close,
// then rename tmp over name (FS.Rename is atomic and durable). A crash
// leaves the old name or the new one, never a torn file. what names the
// file in errors.
func WriteFileAtomic(fsys FS, tmp, name string, data []byte, what string) error {
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: create %s tmp: %w", what, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("wal: write %s: %w", what, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync %s: %w", what, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: close %s: %w", what, err)
	}
	if err := fsys.Rename(tmp, name); err != nil {
		return fmt.Errorf("wal: publish %s: %w", what, err)
	}
	return nil
}

// ReadFile returns the whole of name, read into one buffer of its exact
// size, or ok = false when it does not exist.
func ReadFile(fsys FS, name string) (data []byte, ok bool, err error) {
	ok, err = readFile(fsys, name, func(f File, size int64) error {
		data = make([]byte, size)
		_, err := io.ReadFull(f, data)
		return err
	})
	return data, ok, err
}

// HasLegacyState reports whether the base directory holds the
// single-stream WAL state of earlier builds: a top-level snapshot or log.
// Only meaningful without a manifest; the store refuses such a directory.
func HasLegacyState(fsys FS) bool {
	for _, name := range []string{logName, snapshotName} {
		if n, err := fsys.Size(name); err == nil && n >= 0 {
			return true
		}
	}
	return false
}

// SubdirFS is implemented by FS backends that can root themselves in a
// subdirectory natively (the production osDir creates the directory on
// disk). Backends without it get a name-prefix wrapper from Sub, which is
// all a flat-namespace FS (internal/faultfs) needs.
type SubdirFS interface {
	Sub(dir string) (FS, error)
}

// Sub returns an FS rooted at dir inside fsys: natively when fsys
// implements SubdirFS, otherwise by prefixing every name with "dir/".
func Sub(fsys FS, dir string) (FS, error) {
	if s, ok := fsys.(SubdirFS); ok {
		return s.Sub(dir)
	}
	return prefixFS{fs: fsys, prefix: dir + "/"}, nil
}

// prefixFS scopes a flat-namespace FS to a subdirectory by name prefix.
type prefixFS struct {
	fs     FS
	prefix string
}

func (p prefixFS) Create(name string) (File, error)     { return p.fs.Create(p.prefix + name) }
func (p prefixFS) Open(name string) (File, error)       { return p.fs.Open(p.prefix + name) }
func (p prefixFS) OpenAppend(name string) (File, error) { return p.fs.OpenAppend(p.prefix + name) }
func (p prefixFS) Rename(oldname, newname string) error {
	return p.fs.Rename(p.prefix+oldname, p.prefix+newname)
}
func (p prefixFS) Remove(name string) error               { return p.fs.Remove(p.prefix + name) }
func (p prefixFS) Truncate(name string, size int64) error { return p.fs.Truncate(p.prefix+name, size) }
func (p prefixFS) Size(name string) (int64, error)        { return p.fs.Size(p.prefix + name) }
