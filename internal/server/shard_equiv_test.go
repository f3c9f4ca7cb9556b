package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/agg"
	"repro/internal/faultfs"
	"repro/internal/stats"
	"repro/internal/wal"
)

// The sharded service must be observation-equivalent to the single-shard
// one: sharding is a storage layout, not a semantics change. These tests
// drive randomized streams — out-of-order days, duplicate raters, invalid
// submissions — into services differing only in shard count and require
// bit-exact agreement on every public read, through crashes included.

var equivProducts = func() []string {
	out := make([]string, 12)
	for i := range out {
		out[i] = fmt.Sprintf("prod-%02d", i)
	}
	return out
}()

// equivOp is one deterministic pseudo-random operation of the stream:
// mostly valid submissions, with invalid and duplicate ones mixed in.
func equivOp(rng *rand.Rand, i int) (product, rater string, value, day float64) {
	product = equivProducts[rng.IntN(len(equivProducts))]
	rater = fmt.Sprintf("r%03d", i)
	value = float64(rng.IntN(10)+1) * 0.5
	day = rng.Float64() * 90 // out-of-order arrival by construction
	switch i % 23 {
	case 7:
		rater = fmt.Sprintf("r%03d", i-2) // frequent duplicate-rater attempts
	case 11:
		value = 9 // out of range
	case 13:
		day = -3 // below range
	case 17:
		product = "prod-unregistered"
	case 19:
		rater = ""
	}
	return product, rater, value, day
}

// requireSameView asserts bit-exact agreement of every public read between
// the two services.
func requireSameView(t *testing.T, label string, a, b *Service) {
	t.Helper()
	ctx := context.Background()
	for _, p := range equivProducts {
		sa, errA := a.Scores(ctx, p)
		sb, errB := b.Scores(ctx, p)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s: Scores(%s) errors diverge: %v vs %v", label, p, errA, errB)
		}
		if len(sa) != len(sb) {
			t.Fatalf("%s: Scores(%s) lengths diverge: %d vs %d", label, p, len(sa), len(sb))
		}
		for i := range sa {
			if math.Float64bits(sa[i]) != math.Float64bits(sb[i]) {
				t.Fatalf("%s: Scores(%s)[%d] = %v vs %v (bits %x vs %x)",
					label, p, i, sa[i], sb[i], math.Float64bits(sa[i]), math.Float64bits(sb[i]))
			}
		}
		ra, errA := a.Inspect(ctx, p)
		rb, errB := b.Inspect(ctx, p)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s: Inspect(%s) errors diverge: %v vs %v", label, p, errA, errB)
		}
		// Scores may legitimately hold NaN (empty periods), so the report is
		// compared field-wise with bitwise float equality, not DeepEqual.
		if ra.Ratings != rb.Ratings || ra.Suspicious != rb.Suspicious ||
			ra.HasSuspicious != rb.HasSuspicious || ra.Stale != rb.Stale ||
			len(ra.Scores) != len(rb.Scores) {
			t.Fatalf("%s: Inspect(%s) diverges:\n  %+v\n  %+v", label, p, ra, rb)
		}
		for i := range ra.Scores {
			if math.Float64bits(ra.Scores[i]) != math.Float64bits(rb.Scores[i]) {
				t.Fatalf("%s: Inspect(%s).Scores[%d] = %v vs %v", label, p, i, ra.Scores[i], rb.Scores[i])
			}
		}
	}
	for i := 0; i < 600; i += 17 {
		rater := fmt.Sprintf("r%03d", i)
		ta, tb := a.Trust(ctx, rater), b.Trust(ctx, rater)
		if math.Float64bits(ta) != math.Float64bits(tb) {
			t.Fatalf("%s: Trust(%s) = %v vs %v", label, rater, ta, tb)
		}
	}
}

// categorize maps a submission error to its sentinel for errors.Is
// comparison across services.
func categorize(err error) error {
	for _, sentinel := range []error{ErrBadRating, ErrDuplicateRating, ErrUnknownProduct, ErrUnavailable} {
		if errors.Is(err, sentinel) {
			return sentinel
		}
	}
	return err
}

// readShardSurvivors reads the ratings that survived a crash from a sharded
// WAL image: the manifest names the layout, each shard contributes its
// snapshot and log tail. (A local helper — internal/chaos has richer audit
// machinery, but importing it here would cycle.)
func readShardSurvivors(t *testing.T, fsys wal.FS, shards int) []wal.Record {
	t.Helper()
	m, err := wal.ReadManifest(fsys)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || m.Shards != shards {
		t.Fatalf("manifest %+v, want %d shards", m, shards)
	}
	var out []wal.Record
	for i := 0; i < shards; i++ {
		sub, err := wal.Sub(fsys, wal.ShardDir(i))
		if err != nil {
			t.Fatal(err)
		}
		w, _, err := wal.Open(sub, wal.Options{}, wal.ReplayFunc(func(r wal.Record, _ bool) { out = append(out, r) }))
		if err != nil {
			t.Fatalf("open shard %d of crash image: %v", i, err)
		}
		w.Close()
	}
	return out
}

// TestShardedCrashRecoveryMatchesReplay kills a 5-shard service at
// arbitrary write budgets — the cut lands mid-record, mid-fsync, anywhere,
// and independently per shard stream — and requires recovery to equal a
// clean in-memory replay of exactly the records that survived on disk.
func TestShardedCrashRecoveryMatchesReplay(t *testing.T) {
	const shards = 5
	for _, budget := range []int64{150, 600, 1500, 4000, 12000} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			fs := faultfs.New()
			svc, _, err := OpenWAL(agg.NewPScheme(), 90, equivProducts, WALOptions{
				FS: fs, Shards: shards, SyncEvery: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			fs.LimitWrites(budget)
			ctx := context.Background()
			rng := stats.NewRNG(97)
			for i := 0; i < 400; i++ {
				product, rater, value, day := equivOp(rng, i)
				if err := svc.Submit(ctx, product, rater, value, day); errors.Is(err, ErrUnavailable) {
					break // the disk died: this is the crash point
				}
			}
			img := fs.CrashImage()
			svc.Close()

			recovered, rep, err := OpenWAL(agg.NewPScheme(), 90, equivProducts, WALOptions{
				FS: img, Shards: shards,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer recovered.Close()

			survivors := readShardSurvivors(t, img.Clone(), shards)
			if got := rep.SnapshotRatings + rep.ReplayedRatings; got != len(survivors) {
				t.Fatalf("recovery applied %d ratings, crash image holds %d (report %+v)", got, len(survivors), rep)
			}
			ref, err := New(agg.NewPScheme(), 90, equivProducts)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range survivors {
				if err := ref.Submit(ctx, r.Product, r.Rater, r.Value, r.Day); err != nil {
					t.Fatalf("survivor %+v rejected by clean replay: %v", r, err)
				}
			}
			if !reflect.DeepEqual(recovered.dataView(), ref.dataView()) {
				t.Fatal("recovered dataset diverges from clean replay of the surviving records")
			}
			requireSameView(t, "crash-recovered", recovered, ref)
		})
	}
}
