package store

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/faultfs"
	"repro/internal/wal"
)

// FuzzStoreReplay feeds arbitrary bytes to Open as shard 0's wal.log in a
// two-shard directory, first alone and then behind a snapshot of shard 0
// holding the records those bytes decode to, in the same order (so the
// log replays them again). Open must not panic or fail (a bad log tail is
// truncated, never fatal), and replay, run by run, must agree with the
// live path: the recovered store holds exactly the series and versions an
// in-memory store gets from Submitting the snapshot's records and then
// the log's in file order, with records whose product routes to shard 1
// skipped. The recovery report (accepted, duplicate, skipped and
// truncated counts, and the skip reasons) must match that reference too.
// The pinned directory's files seed it.
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

	valid := encodeLog(f,
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
		wal.Record{Product: other[0], Rater: "ivan", Value: math.Inf(1), Day: -1}, // misrouted and invalid
	)
	f.Add(valid)
	f.Add(append(append([]byte(nil), valid...), 0x2a, 0, 0, 0, 1, 2)) // torn tail
	f.Add(valid[:len(valid)/2])
	// Every record of own[1] is skipped: its series stays nil, as on the
	// live path, with or without a snapshot run.
	f.Add(encodeLog(f,
		wal.Record{Product: own[0], Rater: "alice", Value: 4, Day: 10},
		wal.Record{Product: own[1], Rater: "bob", Value: 3, Day: horizon},
		wal.Record{Product: own[1], Rater: "carol", Value: 9, Day: 5},
	))
	f.Add([]byte{})
	for _, name := range []string{"shard-000/wal.log", "shard-001/wal.log", "shard-001/snapshot.json"} {
		data, err := os.ReadFile(filepath.Join(pinnedDir, name))
		if err != nil {
			f.Fatal(err)
		}
		if strings.HasSuffix(name, "snapshot.json") {
			data = data[16:] // the records behind the header are log frames
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, log []byte) {
		fs := faultfs.New()
		fs.WriteFile(logPath, log)
		recs, truncated := replayLog(t, fs.Clone())
		for _, withSnap := range []bool{false, true} {
			if withSnap {
				writeSnapshot(t, fs, recs)
				fs.WriteFile(logPath, log)
			}
			st, rep, err := Open(horizon, products, Options{FS: fs.Clone(), Shards: shards})
			if err != nil {
				t.Fatalf("Open (snapshot %v): %v", withSnap, err)
			}

			ref, err := New(horizon, products, shards)
			if err != nil {
				t.Fatal(err)
			}
			want := RecoveryReport{TruncatedBytes: truncated}
			apply := func(r wal.Record, applied *int) {
				err := checkRating(r.Rater, r.Value, r.Day)
				if err == nil && ref.Has(r.Product) && Route(r.Product, shards) != 0 {
					err = fmt.Errorf("store: product %q routes to shard 1 but its record was found in shard 0's log", r.Product)
				}
				if err == nil {
					_, err = ref.Submit(context.Background(), r.Product, r.Rater, r.Value, r.Day)
				}
				switch {
				case err == nil:
					*applied++
				case errors.Is(err, ErrDuplicateRating) && holdsExact(ref, r):
					want.DuplicateRecords++
				default:
					want.SkippedRecords++
					if len(want.SkipReasons) < maxSkipReasons {
						want.SkipReasons = append(want.SkipReasons, fmt.Sprintf("%s/%s value=%v day=%v: %v", r.Product, r.Rater, r.Value, r.Day, err))
					}
				}
			}
			if withSnap {
				for _, r := range recs {
					apply(r, &want.SnapshotRatings)
				}
			}
			for _, r := range recs {
				apply(r, &want.ReplayedRatings)
			}
			if !reflect.DeepEqual(*rep, want) {
				t.Fatalf("snapshot %v: recovery report %+v, want %+v", withSnap, *rep, want)
			}
			got, exp := st.View(), ref.View()
			for i, p := range got.Products {
				if q := exp.Products[i]; !reflect.DeepEqual(p, q) {
					t.Fatalf("snapshot %v: recovered %#v, live path %#v", withSnap, p, q)
				}
			}
			st.Close()
		}
	})
}

// replayLog returns the records Open recovers from shard 0's log in fs
// and the torn bytes it truncates.
func replayLog(t *testing.T, fs *faultfs.FS) ([]wal.Record, int64) {
	t.Helper()
	sub, err := wal.Sub(fs, wal.ShardDir(0))
	if err != nil {
		t.Fatal(err)
	}
	var recs []wal.Record
	w, rec, err := wal.Open(sub, wal.Options{}, wal.ReplayFunc(func(r wal.Record, _ bool) { recs = append(recs, r) }))
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	w.Close()
	return recs, rec.TruncatedBytes
}

// writeSnapshot publishes recs, in order, as shard 0's snapshot in fs,
// one dataset product per stretch of one product's records.
func writeSnapshot(t *testing.T, fs *faultfs.FS, recs []wal.Record) {
	t.Helper()
	d := &dataset.Dataset{}
	for i, r := range recs {
		if i == 0 || r.Product != recs[i-1].Product {
			d.Products = append(d.Products, dataset.Product{ID: r.Product})
		}
		p := &d.Products[len(d.Products)-1]
		p.Ratings = append(p.Ratings, dataset.Rating{Day: r.Day, Value: r.Value, Rater: r.Rater})
	}
	sub, err := wal.Sub(fs, wal.ShardDir(0))
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := wal.Open(sub, wal.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Compact(d); err != nil {
		t.Fatal(err)
	}
	w.Close()
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
