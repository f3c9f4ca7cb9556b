// Package durafix exercises durataint: functions whose error results derive
// from WAL append/fsync calls become carriers (directly, through locals,
// through fmt.Errorf wrapping, and through multi-hop call chains), and
// dropping or swallowing a carrier's error anywhere up the chain is a
// finding. Non-durability errors stay invisible — this is taint tracking,
// not errcheck. Direct drops on the WAL surface itself (the depth-0
// carriers) are exercised by the sibling walsurface fixture.
package durafix

import (
	"errors"
	"fmt"

	"repro/internal/wal"
)

type Store struct {
	w *wal.WAL
}

// flush is a depth-1 carrier: the fsync error is returned directly.
func (s *Store) flush() error {
	return s.w.Sync()
}

// submit is a carrier through a local and a %w wrap.
func (s *Store) submit(v float64) (int, error) {
	err := s.w.Append(wal.Record{Value: v})
	if err != nil {
		return 0, fmt.Errorf("submit: %w", err)
	}
	return 1, nil
}

// relay is a depth-2 carrier: submit's wrapped error, wrapped again.
func (s *Store) relay() error {
	_, err := s.submit(3)
	if err != nil {
		return fmt.Errorf("relay: %w", err)
	}
	return nil
}

// other returns a non-durability error and is not a carrier.
func (s *Store) other() error {
	return errors.New("transient")
}

func (s *Store) badDrop() {
	s.flush() // want "durability error from Store.flush dropped"
}

func (s *Store) badDeferDrop() {
	defer s.flush() // want "durability error from Store.flush dropped"
}

func (s *Store) badGoDrop() {
	go s.flush() // want "durability error from Store.flush dropped"
}

func (s *Store) badBlank() {
	_ = s.flush() // want "durability error from Store.flush dropped"
}

func (s *Store) badTupleBlank() int {
	n, _ := s.submit(1) // want "durability error from Store.submit dropped"
	return n
}

func (s *Store) badDeepDrop() {
	s.relay() // want "durability error from Store.relay dropped"
}

// badSwallow assigns the carrier error to a variable no path reads again:
// the lexically earlier check is unreachable from the assignment.
func (s *Store) badSwallow() error {
	err := s.other()
	if err != nil {
		return err
	}
	err = s.flush() // want "durability error from Store.flush swallowed"
	return nil
}

// badBaseSwallow swallows the fsync error at the WAL surface itself: a
// depth-0 carrier is swallowed exactly like a deeper one.
func (s *Store) badBaseSwallow() error {
	err := s.other()
	if err != nil {
		return err
	}
	err = s.w.Sync() // want "durability error from WAL.Sync swallowed"
	return nil
}

// goodCheck handles the error on every path.
func (s *Store) goodCheck() error {
	if err := s.flush(); err != nil {
		return err
	}
	return nil
}

// goodNamed assigns to a named result: the bare return consumes it.
func (s *Store) goodNamed() (err error) {
	err = s.flush()
	return
}

// goodLoop reads the error on the next iteration through the back edge —
// the CFG reachability that a lexical scan would miss.
func (s *Store) goodLoop() error {
	var last error
	for i := 0; i < 3; i++ {
		if last != nil {
			return last
		}
		last = s.flush()
	}
	return last
}

// goodDeferRead consumes the error in a deferred closure, which runs after
// the assignment regardless of lexical position (documented trade-off:
// any closure read counts as consumption).
func (s *Store) goodDeferRead() (out error) {
	var err error
	defer func() { out = err }()
	err = s.flush()
	return nil
}

// goodOther drops a non-durability error: not this analyzer's business.
func (s *Store) goodOther() {
	s.other()
}
