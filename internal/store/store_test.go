package store

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

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
		w, rec, err := wal.Open(sub, wal.Options{})
		if err != nil {
			t.Fatalf("open shard %d: %v", i, err)
		}
		for _, r := range rec.Records {
			if Route(r.Product, shards) != i {
				t.Errorf("record for %q found in shard %d, routes to %d", r.Product, i, Route(r.Product, shards))
			}
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
	if rep.SkippedRecords != 0 || rep.DuplicateRecords != 0 || rep.MigratedFromLegacy {
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

// A legacy (pre-sharding) WAL directory opened with Shards>1 is migrated in
// place: every rating survives into its routed shard, the manifest is
// published, the legacy files are removed, and the next open is an ordinary
// sharded boot.
func TestLegacyDirectoryMigration(t *testing.T) {
	fs := faultfs.New()
	products := testProducts(10)
	st, _, err := Open(90, products, Options{FS: fs, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	submitN(t, st, 30)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if m, err := wal.ReadManifest(fs); err != nil || m != nil {
		t.Fatalf("single-shard layout grew a manifest: %+v, %v", m, err)
	}

	st2, rep, err := Open(90, products, Options{FS: fs, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.MigratedFromLegacy {
		t.Fatalf("report %+v: MigratedFromLegacy not set", rep)
	}
	if got := rep.SnapshotRatings + rep.ReplayedRatings; got != 30 {
		t.Fatalf("migration carried %d ratings, want 30", got)
	}
	if got := totalRatings(t, st2); got != 30 {
		t.Fatalf("migrated store holds %d ratings, want 30", got)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	if wal.HasLegacyState(fs) {
		t.Fatal("legacy snapshot/log still present after migration")
	}
	if m, err := wal.ReadManifest(fs); err != nil || m == nil || m.Shards != 4 {
		t.Fatalf("post-migration manifest = %+v, %v", m, err)
	}

	st3, rep3, err := Open(90, products, Options{FS: fs, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if rep3.MigratedFromLegacy {
		t.Fatal("second open after migration migrated again")
	}
	if got := rep3.SnapshotRatings + rep3.ReplayedRatings; got != 30 {
		t.Fatalf("post-migration reopen recovered %d ratings, want 30", got)
	}
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
	burned := st.shards[0].seen[products[0]]["alice"]
	st.mu.RUnlock()
	if burned {
		t.Fatal("failed submit left the rater reservation behind")
	}
	if n, _ := st.RatingCount(products[0]); n != 0 {
		t.Fatalf("failed submit applied a rating: count %d", n)
	}
}

// BeginRecompute consumes the dirty watermarks; AbortRecompute restores
// them, merging with any dirtiness submitted since the cut.
func TestAbortRecomputeRestoresWatermark(t *testing.T) {
	st, err := New(90, testProducts(6), 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Drain the initial everything-dirty mark.
	if v := st.BeginRecompute(); !v.Dirty() || v.DirtyFrom != 0 {
		t.Fatalf("initial cut = %+v, want dirty from 0", v)
	}
	if st.Dirty() {
		t.Fatal("store dirty after consuming the initial cut")
	}

	if _, err := st.Submit(ctx, "product-0", "r1", 3, 42); err != nil {
		t.Fatal(err)
	}
	v := st.BeginRecompute()
	if !v.Dirty() || v.DirtyFrom != 42 {
		t.Fatalf("cut after day-42 submit = %+v, want dirty from 42", v)
	}
	if st.Dirty() {
		t.Fatal("store dirty after cut consumed the watermark")
	}

	// A submission lands between the cut and the abort: the merge must keep
	// the earlier of the two marks.
	if _, err := st.Submit(ctx, "product-0", "r2", 3, 50); err != nil {
		t.Fatal(err)
	}
	st.AbortRecompute(v)
	v2 := st.BeginRecompute()
	if v2.DirtyFrom != 42 {
		t.Fatalf("post-abort cut dirty from %v, want 42 (restored mark)", v2.DirtyFrom)
	}
}

// A record planted in the wrong shard's log (corruption, manual tampering)
// is refused on replay with a routing skip, never silently applied.
func TestMisroutedRecordSkippedOnRecovery(t *testing.T) {
	const shards = 4
	fs := faultfs.New()
	products := testProducts(8)
	st, _, err := Open(90, products, Options{FS: fs, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	victim := products[0]
	wrong := (Route(victim, shards) + 1) % shards
	sub, err := wal.Sub(fs, wal.ShardDir(wrong))
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := wal.Open(sub, wal.Options{})
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
	if n, _ := st2.RatingCount(victim); n != 0 {
		t.Fatalf("misrouted record was applied: count %d", n)
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
	if math.IsInf(st.BeginRecompute().DirtyFrom, 1) {
		t.Fatal("View consumed the dirty watermark")
	}
}
