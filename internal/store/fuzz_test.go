package store

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/wal"
)

// FuzzStoreReplay feeds arbitrary bytes to Open as shard 0's wal.log in a
// two-shard directory. Open must not panic or fail (a bad log tail is
// truncated, never fatal), and replay must agree with the live path: the
// recovered store holds exactly the series an in-memory store gets from
// Submitting wal.Open's records of the same bytes in log order, with
// records whose product routes to shard 1 skipped. The recovery report's
// accepted, duplicate, skipped and truncated counts must match that
// reference too.
func FuzzStoreReplay(f *testing.F) {
	const shards, horizon = 2, 90
	products := testProducts(6)
	var own, other []string
	for _, id := range products {
		if Route(id, shards) == 0 {
			own = append(own, id)
		} else {
			other = append(other, id)
		}
	}
	if len(own) < 2 || len(other) == 0 {
		f.Fatalf("products %q do not cover both shards", products)
	}
	logPath := wal.ShardDir(0) + "/wal.log"

	seedLog := func(recs ...wal.Record) []byte {
		fs := faultfs.New()
		w, _, err := wal.Open(fs, wal.Options{}, nil)
		if err != nil {
			f.Fatal(err)
		}
		for _, r := range recs {
			if err := w.Append(r); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		data, err := fs.ReadFile("wal.log")
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	valid := seedLog(
		wal.Record{Product: own[0], Rater: "alice", Value: 4, Day: 10},
		wal.Record{Product: own[1], Rater: "alice", Value: 2.5, Day: 3},
		wal.Record{Product: own[0], Rater: "bob", Value: 1, Day: 2},     // out of day order
		wal.Record{Product: own[0], Rater: "alice", Value: 4, Day: 10},  // exact duplicate
		wal.Record{Product: own[0], Rater: "bob", Value: 5, Day: 2},     // conflicting duplicate
		wal.Record{Product: other[0], Rater: "carol", Value: 3, Day: 5}, // misrouted
		wal.Record{Product: "unregistered", Rater: "dave", Value: 3, Day: 5},
		wal.Record{Product: own[1], Rater: "erin", Value: 9, Day: 5},
		wal.Record{Product: own[1], Rater: "frank", Value: math.NaN(), Day: 5},
		wal.Record{Product: own[1], Rater: "grace", Value: 3, Day: horizon},
		wal.Record{Product: own[1], Rater: "", Value: 3, Day: 5},
		wal.Record{Product: own[1], Rater: "heidi", Value: 3, Day: -1},
	)
	f.Add(valid)
	f.Add(append(append([]byte(nil), valid...), 0x2a, 0, 0, 0, 1, 2)) // torn tail
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, log []byte) {
		fs := faultfs.New()
		fs.WriteFile(logPath, log)
		refFS := fs.Clone()

		st, rep, err := Open(horizon, products, Options{FS: fs, Shards: shards})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer st.Close()

		sub, err := wal.Sub(refFS, wal.ShardDir(0))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := New(horizon, products, shards)
		if err != nil {
			t.Fatal(err)
		}
		var want RecoveryReport
		w, rec, err := wal.Open(sub, wal.Options{}, wal.ReplayFunc(func(r wal.Record, _ bool) {
			if ref.Has(r.Product) && Route(r.Product, shards) != 0 {
				want.SkippedRecords++
				return
			}
			_, err := ref.Submit(context.Background(), r.Product, r.Rater, r.Value, r.Day)
			switch {
			case err == nil:
				want.ReplayedRatings++
			case errors.Is(err, ErrDuplicateRating) && holdsExact(ref, r):
				want.DuplicateRecords++
			default:
				want.SkippedRecords++
			}
		}))
		if err != nil {
			t.Fatalf("wal.Open: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		want.TruncatedBytes = rec.TruncatedBytes
		if rep.SnapshotRatings != 0 || rep.ReplayedRatings != want.ReplayedRatings ||
			rep.DuplicateRecords != want.DuplicateRecords || rep.SkippedRecords != want.SkippedRecords ||
			rep.TruncatedBytes != want.TruncatedBytes {
			t.Fatalf("recovery report %+v, want counts %+v", *rep, want)
		}

		got, exp := st.View(), ref.View()
		for i, p := range got.Products {
			q := exp.Products[i]
			if p.ID != q.ID || p.Version != q.Version || len(p.Ratings) != len(q.Ratings) {
				t.Fatalf("product %d: recovered %s v%d with %d ratings, live path %s v%d with %d",
					i, p.ID, p.Version, len(p.Ratings), q.ID, q.Version, len(q.Ratings))
			}
			for j := range p.Ratings {
				if p.Ratings[j] != q.Ratings[j] {
					t.Fatalf("%s rating %d: recovered %+v, live path %+v", p.ID, j, p.Ratings[j], q.Ratings[j])
				}
			}
		}
	})
}

// holdsExact reports whether st already holds r's rater on r's product
// with exactly r's value and day: the exact duplicate replay drops
// silently.
func holdsExact(st *Store, r wal.Record) bool {
	for _, p := range st.View().Products {
		if p.ID != r.Product {
			continue
		}
		for _, x := range p.Ratings {
			if x.Rater == r.Rater {
				//lint:ignore floateq the replay dedup this mirrors is bit-exact by design
				return x.Value == r.Value && x.Day == r.Day
			}
		}
	}
	return false
}
