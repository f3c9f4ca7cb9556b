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

// BenchmarkStoreOpen times a cold boot of 2 shards holding 10k ratings
// in the restart workload's shape: 8 products, days in order, and raters
// drawn from a shared pool of 1,400, so each rates about seven products.
// Half the ratings are checkpointed, half streamed after the checkpoint.
// The clean row opens the directory a Close left, snapshots only; the
// crash row opens it as a kill before that Close left it, each shard's
// snapshot plus a log tail. Each iteration opens a fresh copy of its
// image and closes the store with the timer stopped, so the per-op cost
// is the Open alone and does not depend on b.N. The load row times the
// write side of the same state: a fresh durable store's Load of those
// 10k ratings (validation, the shard dictionaries, the compactions).
func BenchmarkStoreOpen(b *testing.B) {
	const shards, perPhase, pool = 2, 5000, 1400
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
	clean := faultfs.New()
	st, _, err := Open(600, products, Options{FS: clean, Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	submit := func(from int, day0 float64) {
		for i := from; i < from+perPhase; i++ {
			day := day0 + 300*float64(i-from)/perPhase
			// A product's ratings are i, i+8, ...: distinct i/8, so
			// distinct raters per product.
			rater := fmt.Sprintf("rater-%05d", (i/len(products)+97*(i%len(products)))%pool)
			if _, err := st.Submit(ctx, products[i%len(products)], rater, float64(i%11)/2, day); err != nil {
				b.Fatal(err)
			}
		}
	}
	submit(0, 0)
	if err := st.Checkpoint(ctx); err != nil {
		b.Fatal(err)
	}
	submit(perPhase, 300)
	crash, all := clean.Clone(), st.View()
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st, _, err := Open(600, products, Options{FS: faultfs.New(), Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := st.Load(ctx, all); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})

	for _, row := range []struct {
		name           string
		img            *faultfs.FS
		snap, replayed int
	}{
		{"clean", clean, 2 * perPhase, 0},
		{"crash", crash, perPhase, perPhase},
	} {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fs := row.img.Clone()
				b.StartTimer()
				st, rep, err := Open(600, products, Options{FS: fs, Shards: shards})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if rep.SnapshotRatings != row.snap || rep.ReplayedRatings != row.replayed {
					b.Fatalf("recovered %d snapshot + %d replayed ratings, want %d + %d", rep.SnapshotRatings, rep.ReplayedRatings, row.snap, row.replayed)
				}
				if err := st.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
