// Package faultfs is a fault-injection harness for the write-ahead log: an
// in-memory filesystem implementing wal.FS whose failures are injectable —
// fsync errors after N successful syncs, short writes once a byte budget
// is exhausted (simulating a process killed mid-write), fsync stalls and
// per-operation latency (a pathological disk), ENOSPC once a space budget
// runs out, and byte-exact crash images for kill-anywhere recovery testing.
//
// Two crash models are available:
//
//   - Clone copies every written byte — the model for a process kill, where
//     the page cache survives and the kernel eventually flushes it.
//   - CrashImage keeps only bytes covered by a successful Sync — the model
//     for a power loss, where unsynced data is gone. It is the observable
//     behind the chaos harness's "no acknowledged-durable write is ever
//     lost" invariant: a rating acked durable must be inside the synced
//     prefix, a rating acked pending may legitimately vanish.
//
// It exists for tests only; production code uses wal.OSDir.
package faultfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"syscall"
	"time"

	"repro/internal/wal"
)

// ErrInjected is the base error for all injected faults; test assertions
// can errors.Is against it.
var ErrInjected = errors.New("faultfs: injected fault")

// FS is an in-memory filesystem with injectable faults. The zero value is
// not usable; construct with New. All methods are safe for concurrent use.
type FS struct {
	mu     sync.Mutex
	files  map[string][]byte
	synced map[string]int // per-file byte length covered by the last Sync

	syncErr       error // returned by Sync once armed
	syncsUntilErr int   // successful syncs remaining before syncErr arms; -1 = never
	syncs         int   // total successful syncs observed

	writeBudget int64 // bytes writable before writes start failing; -1 = unlimited

	spaceBudget int64 // bytes writable before ENOSPC; -1 = unlimited

	syncStall time.Duration // every Sync sleeps this long (stalled disk)
	opLatency time.Duration // every Write and Sync sleeps this long (slow disk)
}

var _ wal.FS = (*FS)(nil)

// New returns an empty in-memory FS with no faults armed.
func New() *FS {
	return &FS{
		files:         make(map[string][]byte),
		synced:        make(map[string]int),
		syncsUntilErr: -1,
		writeBudget:   -1,
		spaceBudget:   -1,
	}
}

// FailSyncsAfter arms an fsync fault: the next n Sync calls succeed, every
// one after that returns an error wrapping ErrInjected. Pass n=0 to fail
// immediately.
func (f *FS) FailSyncsAfter(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncsUntilErr = n
	f.syncErr = fmt.Errorf("%w: fsync refused", ErrInjected)
}

// StallSyncs arms an fsync stall: every subsequent Sync blocks for d before
// completing (successfully), simulating a disk whose write cache is
// saturated. Pass 0 to disarm. The stall is served without holding the FS
// lock, so concurrent writes and crash images proceed while a sync stalls —
// matching a real kernel, where fsync blocks only its caller.
func (f *FS) StallSyncs(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncStall = d
}

// SetOpLatency arms uniform device latency: every Write and Sync sleeps d
// before completing. Pass 0 to disarm. Latency composes with StallSyncs
// (a stalled sync sleeps latency + stall).
func (f *FS) SetOpLatency(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.opLatency = d
}

// LimitSpace arms a disk-full fault: after n more bytes have been written
// (across all files), writes fail with an error wrapping both ErrInjected
// and syscall.ENOSPC. A write that straddles the budget applies only its
// first bytes, exactly like a real filesystem running out of blocks
// mid-write. Pass -1 to disarm.
func (f *FS) LimitSpace(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.spaceBudget = n
}

// ClearFaults disarms all injected faults.
func (f *FS) ClearFaults() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncsUntilErr = -1
	f.syncErr = nil
	f.writeBudget = -1
	f.spaceBudget = -1
	f.syncStall = 0
	f.opLatency = 0
}

// SyncCount reports how many Sync calls have succeeded, across all files —
// the observable for asserting group-commit amortization.
func (f *FS) SyncCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.syncs
}

// LimitWrites arms a crash-at-byte fault: after n more bytes have been
// written (across all files), writes fail. A write that straddles the
// budget applies only its first bytes and returns a short-write error —
// exactly what a process killed mid-write leaves on disk.
func (f *FS) LimitWrites(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writeBudget = n
}

// ReadFile returns a copy of the file's current contents.
func (f *FS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	data, ok := f.files[name]
	if !ok {
		return nil, fmt.Errorf("faultfs: %s: %w", name, os.ErrNotExist)
	}
	return append([]byte(nil), data...), nil
}

// WriteFile replaces the file's contents, bypassing fault injection — for
// constructing disk images (e.g. a crash-truncated log) in tests. The
// contents count as synced.
func (f *FS) WriteFile(name string, data []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.files[name] = append([]byte(nil), data...)
	f.synced[name] = len(data)
}

// Clone returns an independent copy of the filesystem contents with no
// faults armed — a process-kill image: everything written so far survives
// (the page cache outlives the process), everything after is gone.
func (f *FS) Clone() *FS {
	f.mu.Lock()
	defer f.mu.Unlock()
	c := New()
	for name, data := range f.files {
		c.files[name] = append([]byte(nil), data...)
		c.synced[name] = f.synced[name]
	}
	return c
}

// CrashImage returns an independent copy holding only the bytes covered by
// a successful Sync — a power-loss image: the unsynced tail of every file
// is torn away. Files never synced survive as empty (their directory entry
// exists; their data was still in cache). No faults are armed on the image.
func (f *FS) CrashImage() *FS {
	f.mu.Lock()
	defer f.mu.Unlock()
	c := New()
	for name, data := range f.files {
		n := f.synced[name]
		if n > len(data) {
			n = len(data)
		}
		c.files[name] = append([]byte(nil), data[:n]...)
		c.synced[name] = n
	}
	return c
}

// file is an open handle. Reads serve a point-in-time snapshot taken at
// open (matching a read-only *os.File well enough for the WAL's
// read-all-then-close usage); writes go straight to the shared store so a
// crash image sees them.
type file struct {
	fs     *FS
	name   string
	rdata  []byte // snapshot for reads
	roff   int
	write  bool
	closed bool
}

func (f *FS) Create(name string) (wal.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.files[name] = nil
	f.synced[name] = 0
	return &file{fs: f, name: name, write: true}, nil
}

func (f *FS) Open(name string) (wal.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	data, ok := f.files[name]
	if !ok {
		return nil, fmt.Errorf("faultfs: %s: %w", name, os.ErrNotExist)
	}
	// No byte below a file's length is ever rewritten in place (writes
	// append; Create, WriteFile and Truncate install new slices), so the
	// handle shares the current contents instead of copying them.
	return &file{fs: f, name: name, rdata: data[:len(data):len(data)]}, nil
}

func (f *FS) OpenAppend(name string) (wal.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.files[name]; !ok {
		f.files[name] = nil
	}
	return &file{fs: f, name: name, write: true}, nil
}

func (f *FS) Rename(oldname, newname string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	data, ok := f.files[oldname]
	if !ok {
		return fmt.Errorf("faultfs: %s: %w", oldname, os.ErrNotExist)
	}
	f.files[newname] = data
	f.synced[newname] = f.synced[oldname]
	delete(f.files, oldname)
	delete(f.synced, oldname)
	return nil
}

func (f *FS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.files, name)
	delete(f.synced, name)
	return nil
}

func (f *FS) Truncate(name string, size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	data, ok := f.files[name]
	if !ok {
		return fmt.Errorf("faultfs: %s: %w", name, os.ErrNotExist)
	}
	if int64(len(data)) < size {
		return fmt.Errorf("faultfs: truncate %s beyond length", name)
	}
	// The cut bytes are freed, as a real filesystem frees the blocks.
	f.files[name] = append([]byte(nil), data[:size]...)
	// Truncation is metadata, journaled by any real filesystem: the new
	// (shorter) length is what a crash image sees.
	if f.synced[name] > int(size) {
		f.synced[name] = int(size)
	}
	return nil
}

func (f *FS) Size(name string) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	data, ok := f.files[name]
	if !ok {
		return 0, fmt.Errorf("faultfs: %s: %w", name, os.ErrNotExist)
	}
	return int64(len(data)), nil
}

func (h *file) Read(p []byte) (int, error) {
	if h.closed {
		return 0, os.ErrClosed
	}
	if h.roff >= len(h.rdata) {
		return 0, io.EOF
	}
	n := copy(p, h.rdata[h.roff:])
	h.roff += n
	return n, nil
}

func (h *file) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	if h.closed || !h.write {
		h.fs.mu.Unlock()
		return 0, os.ErrClosed
	}
	if lat := h.fs.opLatency; lat > 0 {
		// Sleep outside the lock: a slow device delays its caller, not
		// every other handle.
		h.fs.mu.Unlock()
		time.Sleep(lat)
		h.fs.mu.Lock()
		if h.closed {
			h.fs.mu.Unlock()
			return 0, os.ErrClosed
		}
	}
	defer h.fs.mu.Unlock()
	n := len(p)
	var failure error
	if h.fs.writeBudget >= 0 {
		if int64(n) > h.fs.writeBudget {
			n = int(h.fs.writeBudget)
			failure = fmt.Errorf("%w: short write after %d bytes", ErrInjected, n)
		}
		h.fs.writeBudget -= int64(n)
	}
	if failure == nil && h.fs.spaceBudget >= 0 {
		if int64(n) > h.fs.spaceBudget {
			n = int(h.fs.spaceBudget)
			failure = fmt.Errorf("%w: write %s: %w", ErrInjected, h.name, syscall.ENOSPC)
		}
		h.fs.spaceBudget -= int64(n)
	}
	h.fs.files[h.name] = append(h.fs.files[h.name], p[:n]...)
	return n, failure
}

func (h *file) Sync() error {
	h.fs.mu.Lock()
	if h.closed {
		h.fs.mu.Unlock()
		return os.ErrClosed
	}
	if d := h.fs.opLatency + h.fs.syncStall; d > 0 {
		// Stall outside the lock: fsync blocks its caller while concurrent
		// writes, syncs on other handles, and crash images proceed.
		h.fs.mu.Unlock()
		time.Sleep(d)
		h.fs.mu.Lock()
		if h.closed {
			h.fs.mu.Unlock()
			return os.ErrClosed
		}
	}
	defer h.fs.mu.Unlock()
	if h.fs.syncErr != nil {
		if h.fs.syncsUntilErr <= 0 {
			return h.fs.syncErr
		}
		h.fs.syncsUntilErr--
	}
	h.fs.syncs++
	// Everything written to this file so far — including bytes landed
	// during the stall — is on stable storage now.
	h.fs.synced[h.name] = len(h.fs.files[h.name])
	return nil
}

func (h *file) Close() error {
	h.closed = true
	return nil
}
