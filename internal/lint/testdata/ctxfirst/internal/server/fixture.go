// Package serverfix exercises ctxfirst inside an internal/server package
// path: exported functions doing durable I/O or spawning workers must take
// context.Context first.
package serverfix

import (
	"context"

	"repro/internal/wal"
)

type Service struct {
	w *wal.WAL
}

func (s *Service) Submit(ctx context.Context, v float64) error { // allowed: ctx first
	_ = ctx
	return s.w.Append(wal.Record{Value: v})
}

func (s *Service) Flush() error { // want "exported Flush writes the WAL"
	return s.w.Sync()
}

func (s *Service) Rebuild() { // want "exported Rebuild spawns a goroutine"
	done := make(chan struct{})
	go func() {
		close(done)
	}()
	<-done
}

func (s *Service) Query(v int) error { // want "exported Query calls context-aware"
	return s.query(context.Background(), v)
}

// allowed: the contract binds exported functions; helpers inherit the
// caller's context by convention.
func (s *Service) query(ctx context.Context, v int) error {
	_ = ctx
	_ = v
	return nil
}

func (s *Service) Checkpoint() error { // want "exported Checkpoint reaches writes the WAL"
	return s.compact()
}

func (s *Service) compact() error {
	return s.w.Compact(nil, nil, nil)
}

func (s *Service) Late(v int, ctx context.Context) error { // want "first parameter"
	_ = v
	_ = ctx
	return s.w.Sync()
}

func (s *Service) Stats() int { // allowed: pure accessor, no I/O
	return 0
}

// allowed: building a closure is not work — it runs later under the
// eventual caller's context.
func (s *Service) Handler() func(context.Context, int) error {
	return func(ctx context.Context, v int) error {
		return s.query(ctx, v)
	}
}

func (s *Service) Close() error { // allowed: drain is context-free by convention
	return s.w.Sync()
}

//lint:ignore ctxfirst boot-time recovery has no caller to propagate a deadline from, demonstrated for the fixture
func Open(w *wal.WAL) (*Service, error) {
	if err := w.Sync(); err != nil {
		return nil, err
	}
	return &Service{w: w}, nil
}
