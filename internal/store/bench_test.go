package store

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/faultfs"
)

// BenchmarkShardRoute pins the routing hot path: one inline FNV-1a pass,
// zero allocations — it runs inside every Submit before any lock is taken.
func BenchmarkShardRoute(b *testing.B) {
	ids := testProducts(64)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += Route(ids[i&63], 16)
	}
	if sink < 0 {
		b.Fatal("impossible")
	}
}

// BenchmarkSubmitParallel measures concurrent ingest across goroutines
// pinned to distinct products — the workload striped locking exists for.
// With one shard every submission serializes on the same mutex and fsync
// pipeline (here: no WAL, so just the mutex); with more shards the
// goroutines spread across independent locks and the per-op cost drops as
// contention does. Days come from one shared counter, so each goroutine's
// product receives its ratings in day order: every submit takes
// Series.Insert's amortised O(1) tail path, and the per-op cost does not
// depend on b.N. Allocations are reported (the rater string, plus the
// occasional geometric growth of a series) but the BENCH_store.json
// baseline stays ns-only: RunParallel's worker bookkeeping allocates
// inside the measured window, which at CI's -benchtime=1x would swamp
// allocs/op.
func BenchmarkSubmitParallel(b *testing.B) {
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			products := testProducts(64)
			// One day per submit, so the horizon must hold b.N days.
			st, err := New(float64(b.N+1), products, shards)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			var workers, raters atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// Each goroutine submits to its own product, so goroutines
				// land on distinct shards whenever the shard count allows,
				// and each product sees strictly increasing days.
				product := products[int(workers.Add(1))%len(products)]
				for pb.Next() {
					n := raters.Add(1)
					rater := fmt.Sprintf("r%d", n)
					if _, err := st.Submit(ctx, product, rater, 3, float64(n)); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkStoreOpen times a cold boot: Open replays one fixed in-memory
// WAL image of 2 shards, each holding ~2.5k snapshot ratings and ~2.5k log
// records in day order (the restart workload's shape), and Close closes
// it. Open neither truncates nor compacts a clean image, so every
// iteration replays the same bytes and the per-op cost does not depend on
// b.N.
func BenchmarkStoreOpen(b *testing.B) {
	const shards, perPhase = 2, 5000
	// Four products per shard, so both shards get the same share.
	var products []string
	var perShard [shards]int
	for i := 0; len(products) < 8; i++ {
		id := fmt.Sprintf("tv%d", i)
		if s := Route(id, shards); perShard[s] < 4 {
			perShard[s]++
			products = append(products, id)
		}
	}
	img := faultfs.New()
	st, _, err := Open(600, products, Options{FS: img, Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	submit := func(from int, day0 float64) {
		for i := from; i < from+perPhase; i++ {
			day := day0 + 300*float64(i-from)/perPhase
			if _, err := st.Submit(ctx, products[i%len(products)], fmt.Sprintf("rater-%05d", i), float64(i%11)/2, day); err != nil {
				b.Fatal(err)
			}
		}
	}
	submit(0, 0)
	if err := st.Checkpoint(ctx); err != nil {
		b.Fatal(err)
	}
	submit(perPhase, 300)
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, rep, err := Open(600, products, Options{FS: img, Shards: shards})
		if err != nil {
			b.Fatal(err)
		}
		if rep.SnapshotRatings != perPhase || rep.ReplayedRatings != perPhase {
			b.Fatalf("recovered %d snapshot + %d replayed ratings, want %d + %d", rep.SnapshotRatings, rep.ReplayedRatings, perPhase, perPhase)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
