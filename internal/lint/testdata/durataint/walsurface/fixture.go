// Package walfix exercises durataint's depth-0 carriers, the real
// internal/wal surface: dropped errors on Append/Sync/Compact and fsync
// paths are flagged at the direct call, in any package.
package walfix

import (
	"os"

	"repro/internal/wal"
)

func drops(w *wal.WAL, f *os.File, lf wal.File, fsys wal.FS) {
	w.Append(wal.Record{})      // want "Append dropped"
	w.Sync()                    // want "Sync dropped"
	w.Compact(nil, nil, nil)    // want "Compact dropped"
	_ = w.Append(wal.Record{})  // want "Append dropped"
	f.Sync()                    // want "Sync dropped"
	lf.Sync()                   // want "Sync dropped"
	fsys.Truncate("wal.log", 0) // want "Truncate dropped"
	fsys.Rename("a", "b")       // want "Rename dropped"
}

func dropsAck(w *wal.WAL) {
	w.AppendAck(wal.Record{})           // want "AppendAck dropped"
	_, _ = w.AppendAck(wal.Record{})    // want "AppendAck dropped"
	ack, _ := w.AppendAck(wal.Record{}) // want "AppendAck dropped"
	_ = ack
}

func checkedAck(w *wal.WAL) error {
	ack, err := w.AppendAck(wal.Record{}) // allowed: error consumed
	_ = ack
	return err
}

func dropsDeferred(w *wal.WAL) {
	defer w.Sync() // want "Sync dropped"
}

func dropsInGoroutine(w *wal.WAL) {
	go w.Sync() // want "Sync dropped"
}

func checked(w *wal.WAL, f *os.File) error {
	if err := w.Append(wal.Record{}); err != nil { // allowed: error consumed
		return err
	}
	if err := f.Sync(); err != nil { // allowed: error consumed
		return err
	}
	err := w.Sync() // allowed: assigned to a real variable
	return err
}

func outsideSurface(w *wal.WAL, f *os.File) {
	_ = w.Size()    // allowed: Size has no error result
	w.Close()       // allowed: Close is not on the guarded durability surface
	defer f.Close() // allowed: os.File.Close is not fsync
}

func annotated(w *wal.WAL) {
	//lint:ignore durataint best-effort flush on an already-failed shutdown path, demonstrated for the fixture
	w.Sync()
}
