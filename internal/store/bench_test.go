package store

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
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
