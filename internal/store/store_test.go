package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/faultfs"
	"repro/internal/wal"
)

func testProducts(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("product-%d", i)
	}
	return out
}

// Route must be exactly FNV-1a 64 mod shards: the constant is inlined for
// zero-alloc routing, and this pin keeps it in lockstep with the stdlib
// definition the manifest's hash name ("fnv1a64") promises.
func TestRouteMatchesStdlibFNV(t *testing.T) {
	ids := append(testProducts(32), "", "a", "product-é", strings.Repeat("x", 300))
	for _, shards := range []int{1, 2, 3, 8, 64} {
		for _, id := range ids {
			h := fnv.New64a()
			h.Write([]byte(id))
			want := 0
			if shards > 1 {
				want = int(h.Sum64() % uint64(shards))
			}
			if got := Route(id, shards); got != want {
				t.Fatalf("Route(%q, %d) = %d, want %d", id, shards, got, want)
			}
		}
	}
}

// The same product must land on the same shard across independent store
// instances — routing is a pure function, not per-process state.
func TestRoutingDeterministicAcrossInstances(t *testing.T) {
	products := testProducts(24)
	a, err := New(90, products, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(90, products, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range products {
		if a.ShardOf(p) != b.ShardOf(p) {
			t.Fatalf("product %q: shard %d vs %d across instances", p, a.ShardOf(p), b.ShardOf(p))
		}
		if a.ShardOf(p) != Route(p, 5) {
			t.Fatalf("product %q: ShardOf %d != Route %d", p, a.ShardOf(p), Route(p, 5))
		}
	}
}

// submitN pushes n distinct valid ratings round-robin over the store's
// products, failing the test on any error.
func submitN(t *testing.T, st *Store, n int) {
	t.Helper()
	products := st.Products()
	for i := 0; i < n; i++ {
		p := products[i%len(products)]
		rater := fmt.Sprintf("rater-%d", i)
		if _, err := st.Submit(context.Background(), p, rater, 3, float64(i%90)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
}

func totalRatings(t *testing.T, st *Store) int {
	t.Helper()
	total := 0
	for _, p := range st.Products() {
		n, err := st.RatingCount(p)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	return total
}

// A sharded open records the shard count and routing hash in the manifest,
// writes each product's records into its routed shard's subdirectory, and a
// restart finds every rating where routing says it must be.
func TestShardedRestartRoutesDeterministically(t *testing.T) {
	const shards = 4
	fs := faultfs.New()
	products := testProducts(12)
	st, _, err := Open(90, products, Options{FS: fs, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	submitN(t, st, 48)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	m, err := wal.ReadManifest(fs)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || m.Shards != shards || m.Hash != wal.RouteHashName {
		t.Fatalf("manifest = %+v, want %d shards with hash %q", m, shards, wal.RouteHashName)
	}

	// Every shard subdirectory holds exactly the records of the products
	// that route there.
	for i := 0; i < shards; i++ {
		sub, err := wal.Sub(fs, wal.ShardDir(i))
		if err != nil {
			t.Fatal(err)
		}
		w, _, err := wal.Open(sub, wal.Options{}, wal.ReplayFunc(func(r wal.Record, _ bool) {
			if Route(r.Product, shards) != i {
				t.Errorf("record for %q found in shard %d, routes to %d", r.Product, i, Route(r.Product, shards))
			}
		}))
		if err != nil {
			t.Fatalf("open shard %d: %v", i, err)
		}
		w.Close()
	}

	st2, rep, err := Open(90, products, Options{FS: fs, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := rep.SnapshotRatings + rep.ReplayedRatings; got != 48 {
		t.Fatalf("recovered %d ratings, want 48 (report %+v)", got, rep)
	}
	if rep.SkippedRecords != 0 || rep.DuplicateRecords != 0 {
		t.Fatalf("unexpected recovery report %+v", rep)
	}
	if got := totalRatings(t, st2); got != 48 {
		t.Fatalf("restart holds %d ratings, want 48", got)
	}
	for _, p := range products {
		if st2.ShardOf(p) != Route(p, shards) {
			t.Fatalf("product %q on shard %d after restart, want %d", p, st2.ShardOf(p), Route(p, shards))
		}
	}
}

// Reopening a sharded directory with a different shard count must fail
// loudly, naming both counts — silently rerouting products across the wrong
// logs would drop every misrouted record on replay.
func TestManifestShardMismatchRejected(t *testing.T) {
	fs := faultfs.New()
	products := testProducts(8)
	st, _, err := Open(90, products, Options{FS: fs, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	submitN(t, st, 16)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, _, err = Open(90, products, Options{FS: fs, Shards: 8})
	if err == nil {
		t.Fatal("reopen with mismatched shard count succeeded")
	}
	for _, want := range []string{"4 shards", "configured for 8", "-shards=4"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("mismatch error %q does not mention %q", err, want)
		}
	}

	// The matching count still opens cleanly.
	st2, rep, err := Open(90, products, Options{FS: fs, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := rep.SnapshotRatings + rep.ReplayedRatings; got != 16 {
		t.Fatalf("recovered %d ratings after rejected reopen, want 16", got)
	}
}

// Every shard count has one on-disk layout, a manifest plus shard-NNN/.
// Open refuses what it cannot read instead of opening it as empty: the
// single-stream layout of earlier builds (a top-level wal.log and/or
// snapshot.json without a manifest) at any shard count, and a JSON
// checkpoint in a shard. A refused directory is left byte for byte as it
// was, with no manifest written. A fresh directory at one shard gets a
// one-shard manifest and is held to it like any other count.
func TestOpenLayout(t *testing.T) {
	products := testProducts(6)
	// legacy writes the single-stream layout of earlier builds: the wal
	// package's files at the top of the directory.
	legacy := func(snapshot, log bool) func(t *testing.T, fsys wal.FS) {
		return func(t *testing.T, fsys wal.FS) {
			w, _, err := wal.Open(fsys, wal.Options{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if snapshot {
				d := &dataset.Dataset{HorizonDays: 90, Products: []dataset.Product{
					{ID: products[0], Ratings: dataset.Series{{Day: 1, Value: 4, Rater: "snap"}}},
				}}
				if err := w.Compact(interned(d)); err != nil {
					t.Fatal(err)
				}
			}
			if log {
				if err := w.Append(wal.Record{Product: products[1], Rater: "tail", Value: 3, Day: 2}); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if !log {
				if err := fsys.Remove("wal.log"); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// jsonCheckpoint writes a one-shard directory, then replaces its
	// checkpoint with the JSON one earlier builds wrote.
	jsonCheckpoint := func(t *testing.T, fsys wal.FS) {
		st, _, err := Open(90, products, Options{FS: fsys, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		submitN(t, st, 6)
		if err := st.Checkpoint(context.Background()); err != nil {
			t.Fatal(err)
		}
		var js bytes.Buffer
		if err := st.View().WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		f, err := fsys.Create(wal.ShardDir(0) + "/snapshot.json")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(js.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name   string
		setup  func(t *testing.T, fsys wal.FS)
		shards int
		want   error
		names  []string // the error names each
	}{
		{"legacy log/1 shard", legacy(false, true), 1, ErrLegacyLayout, []string{"wal.log", "earlier build"}},
		{"legacy log/4 shards", legacy(false, true), 4, ErrLegacyLayout, []string{"wal.log", "earlier build"}},
		{"legacy snapshot/1 shard", legacy(true, false), 1, ErrLegacyLayout, []string{"snapshot.json", "earlier build"}},
		{"legacy snapshot/4 shards", legacy(true, false), 4, ErrLegacyLayout, []string{"snapshot.json", "earlier build"}},
		{"legacy snapshot and log/1 shard", legacy(true, true), 1, ErrLegacyLayout, []string{"wal.log", "earlier build"}},
		{"legacy snapshot and log/4 shards", legacy(true, true), 4, ErrLegacyLayout, []string{"wal.log", "earlier build"}},
		{"JSON checkpoint in shard-000", jsonCheckpoint, 1, wal.ErrCorruptSnapshot, []string{wal.ShardDir(0), "snapshot.json", "JSON checkpoint"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fsys, err := wal.OSDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			tc.setup(t, fsys)
			before := readTree(t, dir)
			st, _, err := Open(90, products, Options{FS: fsys, Shards: tc.shards})
			if err == nil {
				st.Close()
				t.Fatalf("Open accepted the directory holding %q", before)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Open error %q, want %v", err, tc.want)
			}
			for _, want := range tc.names {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("Open error %q does not name %q", err, want)
				}
			}
			if after := readTree(t, dir); !maps.Equal(after, before) {
				t.Fatalf("refused Open changed the directory:\n before %q\n after  %q", before, after)
			}
		})
	}

	t.Run("fresh directory at 1 shard", func(t *testing.T) {
		fs := faultfs.New()
		st, _, err := Open(90, products, Options{FS: fs, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		submitN(t, st, 12)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if m, err := wal.ReadManifest(fs); err != nil || m == nil || m.Shards != 1 || m.Hash != wal.RouteHashName {
			t.Fatalf("manifest = %+v, %v; want 1 shard with hash %q", m, err, wal.RouteHashName)
		}
		if wal.HasLegacyState(fs) {
			t.Fatal("one shard wrote a top-level wal.log or snapshot.json")
		}
		if _, err := fs.ReadFile(wal.ShardDir(0) + "/wal.log"); err != nil {
			t.Fatalf("one shard has no %s/wal.log: %v", wal.ShardDir(0), err)
		}

		_, _, err = Open(90, products, Options{FS: fs, Shards: 2})
		if err == nil {
			t.Fatal("reopen of a 1-shard directory at 2 shards succeeded")
		}
		for _, want := range []string{"1 shards", "configured for 2", "-shards=1"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("mismatch error %q does not mention %q", err, want)
			}
		}

		st2, rep, err := Open(90, products, Options{FS: fs, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer st2.Close()
		if rep.SnapshotRatings != 12 || rep.ReplayedRatings != 0 || rep.SkippedRecords != 0 {
			t.Fatalf("reopen at 1 shard %+v, want 12 snapshot ratings (Close compacts)", rep)
		}
	})
}

// readTree reads every file under dir, keyed by its slash-separated path.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		out[filepath.ToSlash(rel)] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// A WAL append failure must roll back the rater's duplicate-check
// reservation: the rating was never accepted, so the same rater retrying
// after the operator restores storage must not be told "duplicate".
func TestSubmitWALFailureRollsBackReservation(t *testing.T) {
	fs := faultfs.New()
	products := testProducts(1)
	st, _, err := Open(90, products, Options{FS: fs, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	fs.FailSyncsAfter(0)
	_, err = st.Submit(context.Background(), products[0], "alice", 3, 10)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("submit under failing fsync = %v, want ErrUnavailable", err)
	}
	st.mu.RLock()
	sh := st.shards[0]
	sh.mu.Lock()
	_, o := sh.raters.Intern("alice")
	burned := sh.bitsLocked(st.byID[products[0]].pos)[o/64]&(1<<(o%64)) != 0
	sh.mu.Unlock()
	st.mu.RUnlock()
	if burned {
		t.Fatal("failed submit left the rater reservation behind")
	}
	if n, _ := st.RatingCount(products[0]); n != 0 {
		t.Fatalf("failed submit applied a rating: count %d", n)
	}
}

// Generation counts exactly the applied changes: every accepted submit
// and every Load bumps it, while a rejected submit, a View and a
// checkpoint leave it alone.
func TestGenerationCountsAppliedChanges(t *testing.T) {
	st, err := New(90, testProducts(6), 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want := uint64(1)
	check := func(label string) {
		t.Helper()
		if got := st.Generation(); got != want {
			t.Fatalf("%s: generation %d, want %d", label, got, want)
		}
	}
	check("new store")
	for i := 0; i < 4; i++ {
		if _, err := st.Submit(ctx, fmt.Sprintf("product-%d", i), "r1", 3, float64(10*i)); err != nil {
			t.Fatal(err)
		}
		want++
	}
	check("after 4 submits")
	if _, err := st.Submit(ctx, "product-0", "r1", 3, 5); !errors.Is(err, ErrDuplicateRating) {
		t.Fatalf("duplicate submit: err = %v", err)
	}
	if _, err := st.Submit(ctx, "product-0", "r2", 3, 90); !errors.Is(err, ErrBadRating) {
		t.Fatalf("out-of-horizon submit: err = %v", err)
	}
	st.View()
	if err := st.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	check("after rejected submits, a View and a checkpoint")
	if err := st.Load(ctx, st.View()); err != nil {
		t.Fatal(err)
	}
	want++
	check("after Load")
}

// A record planted in the wrong shard's log (corruption, manual tampering)
// is refused on replay with a routing skip, never silently applied. The
// victim product also has records in its own shard's log, which replays
// concurrently: under -race this catches a replay that touches the
// victim's state from the wrong shard's goroutine, even to presize it.
func TestMisroutedRecordSkippedOnRecovery(t *testing.T) {
	const shards, legit = 4, 3
	fs := faultfs.New()
	products := testProducts(8)
	st, _, err := Open(90, products, Options{FS: fs, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	victim := products[0]
	for i := 0; i < legit; i++ {
		if _, err := st.Submit(context.Background(), victim, fmt.Sprintf("rater-%d", i), 4, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	wrong := (Route(victim, shards) + 1) % shards
	sub, err := wal.Sub(fs, wal.ShardDir(wrong))
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := wal.Open(sub, wal.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(wal.Record{Product: victim, Rater: "mallory", Value: 1, Day: 5}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rep, err := Open(90, products, Options{FS: fs, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rep.SkippedRecords != 1 {
		t.Fatalf("report %+v, want exactly the misrouted record skipped", rep)
	}
	found := false
	for _, reason := range rep.SkipReasons {
		if strings.Contains(reason, "routes to shard") {
			found = true
		}
	}
	if !found {
		t.Fatalf("skip reasons %q do not name the routing violation", rep.SkipReasons)
	}
	if n, _ := st2.RatingCount(victim); n != legit {
		t.Fatalf("victim holds %d ratings, want its %d own-shard ones (misrouted record applied?)", n, legit)
	}
}

// Checkpoint compacts every shard: a reopen restores everything from
// snapshots with empty log tails.
func TestCheckpointCompactsAllShards(t *testing.T) {
	fs := faultfs.New()
	products := testProducts(9)
	st, _, err := Open(90, products, Options{FS: fs, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	submitN(t, st, 27)
	if err := st.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rep, err := Open(90, products, Options{FS: fs, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rep.SnapshotRatings != 27 || rep.ReplayedRatings != 0 {
		t.Fatalf("post-checkpoint recovery %+v, want 27 snapshot / 0 replayed", rep)
	}
}

// View returns the combined dataset in registration order regardless of the
// shard count, and the product headers stay stable after more submissions
// (series are never mutated below a view's length; views are
// capacity-capped).
func TestViewRegistrationOrder(t *testing.T) {
	products := testProducts(13)
	st, err := New(90, products, 5)
	if err != nil {
		t.Fatal(err)
	}
	submitN(t, st, 26)
	v := st.View()
	if len(v.Products) != len(products) {
		t.Fatalf("view has %d products, want %d", len(v.Products), len(products))
	}
	for i, p := range v.Products {
		if p.ID != products[i] {
			t.Fatalf("view product %d = %q, want %q (registration order)", i, p.ID, products[i])
		}
	}
	before := len(v.Products[0].Ratings)
	if _, err := st.Submit(context.Background(), products[0], "late-rater", 3, 1); err != nil {
		t.Fatal(err)
	}
	if got := len(v.Products[0].Ratings); got != before {
		t.Fatalf("earlier view grew from %d to %d ratings: snapshot is not stable", before, got)
	}
}

// TestBaseFile pins the store's one named file beside the manifest: Open
// ignores it, so a directory holding only that file opens as fresh (never
// as the legacy layout); WriteFile replaces it atomically through a
// synced temporary file, and a failed sync leaves the previous contents;
// an in-memory store reads nothing and writes nothing.
func TestBaseFile(t *testing.T) {
	products := testProducts(3)
	fs := faultfs.New()
	fs.WriteFile("engine.img", []byte("cached"))
	st, rep, err := Open(90, products, Options{FS: fs})
	if err != nil {
		t.Fatalf("a directory holding only engine.img did not open as fresh: %v", err)
	}
	if rep.SnapshotRatings+rep.ReplayedRatings != 0 {
		t.Fatalf("fresh open recovered %+v", rep)
	}
	if m, err := wal.ReadManifest(fs); err != nil || m == nil {
		t.Fatalf("fresh open wrote no manifest: %+v, %v", m, err)
	}
	if data, ok, err := st.ReadFile("engine.img"); err != nil || !ok || string(data) != "cached" {
		t.Fatalf("ReadFile = %q, %v, %v", data, ok, err)
	}
	if _, ok, err := st.ReadFile("absent"); ok || err != nil {
		t.Fatalf("ReadFile of an absent file = %v, %v", ok, err)
	}
	if err := st.WriteFile("engine.img", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if got, _ := fs.CrashImage().ReadFile("engine.img"); string(got) != "new" {
		t.Fatalf("after WriteFile a power loss leaves %q", got)
	}
	fs.FailSyncsAfter(0)
	if err := st.WriteFile("engine.img", []byte("lost")); err == nil {
		t.Fatal("WriteFile succeeded with every fsync failing")
	}
	fs.ClearFaults()
	if got, _ := fs.ReadFile("engine.img"); string(got) != "new" {
		t.Fatalf("a failed WriteFile left %q", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	mem, err := New(90, products, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.WriteFile("engine.img", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := mem.ReadFile("engine.img"); ok || err != nil {
		t.Fatalf("in-memory ReadFile = %v, %v", ok, err)
	}
}
