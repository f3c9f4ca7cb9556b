package store

import (
	"context"
	"encoding/binary"
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
	"repro/internal/trust"
	"repro/internal/wal"
)

// FuzzStoreReplay feeds arbitrary bytes to Open as shard 0's wal.log in a
// two-shard directory, first alone and then behind a snapshot of shard 0
// holding the records those bytes decode to, in the same order (so the
// log replays them again): a version-3 snapshot as Compact writes it
// (the raters interned in first-seen order, one block per stretch of one
// product's records), and a version-1 snapshot of the same records in
// the log's framing. The records are
// read by the test's own frame reader (readFrames), in file order. Open
// must not panic or fail (a bad log tail is truncated, never fatal), and
// replay, which takes a log product by product, must agree with the live
// path: the recovered store holds exactly the series an
// in-memory store gets from Submitting the snapshot's records and then
// the log's in file order, with records whose product routes to shard 1
// skipped. The recovery report (accepted, duplicate, skipped and
// truncated counts, and the skip reasons, in file order) must match that
// reference too. The rater bitsets that the reopen, and a Load of the
// same ratings, leave unbuilt must then refuse every rating again and
// take a fresh rater (requireRaterSets). The pinned directory's files seed it.
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
		recs, good := readFrames(log)
		truncated := int64(len(log) - good)
		for snapVersion := 0; snapVersion <= 2; snapVersion++ {
			withSnap := snapVersion > 0
			switch snapVersion {
			case 1:
				writeV1Snapshot(t, fs, recs)
			case 2:
				writeSnapshot(t, fs, recs)
				fs.WriteFile(logPath, log)
			}
			st, rep, err := Open(horizon, products, Options{FS: fs.Clone(), Shards: shards})
			if err != nil {
				t.Fatalf("Open (snapshot version %d): %v", snapVersion, err)
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
				t.Fatalf("snapshot version %d: recovery report %+v, want %+v", snapVersion, *rep, want)
			}
			got, exp := st.View(), ref.View()
			for i, p := range got.Products {
				if q := exp.Products[i]; !reflect.DeepEqual(p, q) {
					t.Fatalf("snapshot version %d: recovered %#v, live path %#v", snapVersion, p, q)
				}
			}
			requireRaterSets(t, "reopened", st)
			st.Close()
			loaded, err := New(horizon, products, shards)
			if err != nil {
				t.Fatal(err)
			}
			if err := loaded.Load(context.Background(), exp); err != nil {
				t.Fatal(err)
			}
			requireRaterSets(t, "loaded", loaded)
		}
	})
}

// requireRaterSets re-submits every rating st holds, product by product:
// each must fail as a duplicate and leave Generation as it was. Then a
// rater new to the product must be accepted. A reopen and a Load build no
// rater bitset; a product's first submit builds it from its ordinal
// column.
func requireRaterSets(t *testing.T, label string, st *Store) {
	t.Helper()
	ctx := context.Background()
	for _, p := range st.View().Products {
		gen, held := st.Generation(), map[string]bool{}
		for _, r := range p.Ratings {
			held[r.Rater] = true
			if _, err := st.Submit(ctx, p.ID, r.Rater, r.Value, r.Day); !errors.Is(err, ErrDuplicateRating) || st.Generation() != gen {
				t.Fatalf("%s: re-submitting %s/%s: %v, generation %d → %d; want a duplicate, unchanged", label, p.ID, r.Rater, err, gen, st.Generation())
			}
		}
		fresh := "fresh"
		for held[fresh] {
			fresh += "+"
		}
		if _, err := st.Submit(ctx, p.ID, fresh, 3, 0); err != nil || st.Generation() != gen+1 {
			t.Fatalf("%s: a fresh rater on %s: %v, generation %d → %d", label, p.ID, err, gen, st.Generation())
		}
	}
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
	if err := w.Compact(interned(d)); err != nil {
		t.Fatal(err)
	}
	w.Close()
}

// writeV1Snapshot publishes recs, in order, as shard 0's snapshot in fs in
// format version 1: the header, then each record in the log's framing,
// with no receipt time.
func writeV1Snapshot(t *testing.T, fs *faultfs.FS, recs []wal.Record) {
	t.Helper()
	bare := make([]wal.Record, len(recs))
	for i, r := range recs {
		bare[i] = wal.Record{Product: r.Product, Rater: r.Rater, Value: r.Value, Day: r.Day}
	}
	img := binary.LittleEndian.AppendUint32([]byte("RSNP"), 1)
	img = binary.LittleEndian.AppendUint64(img, uint64(len(recs)))
	fs.WriteFile(wal.ShardDir(0)+"/snapshot.json", append(img, encodeLog(t, bare...)...))
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

// interned returns d, a dictionary of its raters in first-seen order and
// their ordinals, product by product: wal.Compact's arguments for d.
func interned(d *dataset.Dataset) (*dataset.Dataset, *trust.Symbols, [][]uint32) {
	t, ords := trust.NewSymbols(0), make([][]uint32, len(d.Products))
	for i, p := range d.Products {
		for _, r := range p.Ratings {
			var o uint32
			t, o = t.Intern(r.Rater)
			ords[i] = append(ords[i], o)
		}
	}
	return d, t, ords
}
