package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/detect"
)

// countingCtx is a context whose Err flips to context.Canceled after a
// fixed number of Err checks — a deterministic stand-in for "the deadline
// expired mid-evaluation" that does not depend on wall-clock timing. The
// engine polls Err before every unit of work, so budget N cancels exactly
// at the N-th poll regardless of scheduler interleaving (with Workers=1).
// The budget is atomic because pool workers poll Err concurrently.
type countingCtx struct {
	budget atomic.Int64
}

func newCountingCtx(budget int) *countingCtx {
	c := &countingCtx{}
	c.budget.Store(int64(budget))
	return c
}

func (c *countingCtx) Err() error {
	if c.budget.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func (c *countingCtx) Done() <-chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

func (c *countingCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countingCtx) Value(any) any               { return nil }

// TestCancelStopsWorkerPool pins the instrumentation contract behind the
// "a cancelled request stops engine work" acceptance criterion: once the
// context is cancelled, remaining products are skipped (counted in the
// state's Stats().Skipped), not analyzed.
func TestCancelStopsWorkerPool(t *testing.T) {
	d := testDataset(t, 12, 16, 90)
	for _, workers := range []int{1, 4} {
		eng := &Engine{Detect: detect.DefaultConfig(), Workers: workers}
		st := NewState()
		_, err := eng.Resume(newCountingCtx(2), st, d)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		stats := st.Stats()
		skipped, analyzed := stats.Skipped, stats.Analyzed
		if skipped == 0 {
			t.Errorf("workers=%d: no products skipped after cancel (analyzed %d)", workers, analyzed)
		}
		if analyzed >= uint64(len(d.Products))*3 {
			t.Errorf("workers=%d: %d analyses ran despite cancellation in epoch 1",
				workers, analyzed)
		}
	}
}

// TestCancelledEpochNeverCheckpointed: cancelling inside epoch k must not
// append a checkpoint for k — the state's epoch count only grows by whole
// completed epochs, so trust is never folded from a partial product scan.
func TestCancelledEpochNeverCheckpointed(t *testing.T) {
	d := testDataset(t, 13, 8, 360)
	eng := &Engine{Detect: detect.DefaultConfig(), Workers: 1}
	st := NewState()
	// Budget 2 passes the entry check and dies on the first product of the
	// first epoch: the state ends up initialized (the epoch-0 snapshot of
	// pristine trust) but with zero completed epochs.
	if _, err := eng.Resume(newCountingCtx(2), st, d); err == nil {
		t.Fatal("expected cancellation")
	}
	if got := st.CompletedEpochs(); got != 0 {
		t.Fatalf("cancelled first epoch completed %d epochs, want 0", got)
	}
	requireEqualResults(t, "after first-epoch cancel", mustResume(t, eng, st, d), mustEvaluate(t, eng, d))
}
