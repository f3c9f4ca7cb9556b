package store

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/wal"
)

var updatePinned = flag.Bool("update-pinned", false, "rewrite testdata/pinned from pinnedHistory instead of checking it")

// The pinned WAL directory: a manifest and two shards, written by the
// store from pinnedHistory and then killed (copied before Close). Shard
// pinnedSnapShard checkpointed after pinnedSnapEvery ratings and holds a
// snapshot and a log tail; the other shard holds a log only, ending in a
// torn half frame. A change to the frame, snapshot or manifest bytes that
// DESIGN.md §7 does not describe fails the tests below.
const (
	pinnedDir       = "testdata/pinned"
	pinnedHorizon   = 90
	pinnedShards    = 2
	pinnedSnapEvery = 6
)

// pinnedFiles are the files of the pinned directory, relative to it.
var pinnedFiles = []string{
	"wal-manifest.json",
	"shard-000/snapshot.json", "shard-000/wal.log",
	"shard-001/snapshot.json", "shard-001/wal.log",
}

// pinnedHistory is the fixed history behind the pinned directory, in
// submit order. Products 0 and 2 route to shard 1, which takes nine
// ratings and checkpoints after its sixth; products 1 and 3 route to
// shard 0, which takes five and never checkpoints. Each rater rates two
// products, and days fall with the submit index, so every rating but a
// product's first lands before its earlier ones. The torn frame is
// torn's, in shard 0's log.
func pinnedHistory() (products []string, hist []wal.Record, torn wal.Record) {
	products = testProducts(4)
	for i, c := range "01203201203210" {
		hist = append(hist, wal.Record{
			Product: products[c-'0'],
			Rater:   fmt.Sprintf("rater-%02d", i/2),
			Value:   float64(i%11) / 2,
			Day:     float64(60-4*i) + 1.0/3,
		})
	}
	return products, hist, wal.Record{Product: products[1], Rater: "torn", Value: 2.5, Day: 7}
}

// pinnedSnapShard is the shard that checkpoints.
func pinnedSnapShard(products []string) int { return Route(products[0], pinnedShards) }

// pinnedFS loads the pinned directory into a fresh faultfs, so opening
// it truncates the copy and never the checked-in files.
func pinnedFS(t *testing.T) *faultfs.FS {
	t.Helper()
	fs := faultfs.New()
	for _, name := range pinnedFiles {
		data, err := os.ReadFile(filepath.Join(pinnedDir, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		fs.WriteFile(name, data)
	}
	return fs
}

// writePinned regenerates the pinned directory: the store Submits
// pinnedHistory with the snapshot trigger at pinnedSnapEvery, the
// directory is copied before Close (a kill), and half of torn's frame is
// appended to the other shard's log.
func writePinned(t *testing.T) {
	products, hist, torn := pinnedHistory()
	fs := faultfs.New()
	st, _, err := Open(pinnedHorizon, products, Options{FS: fs, Shards: pinnedShards, SnapshotEvery: pinnedSnapEvery})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range hist {
		if _, err := st.Submit(context.Background(), r.Product, r.Rater, r.Value, r.Day); err != nil {
			t.Fatal(err)
		}
	}
	killed := fs.Clone()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	frame := encodeLog(t, torn)
	tornLog := wal.ShardDir(1-pinnedSnapShard(products)) + "/wal.log"
	data, err := killed.ReadFile(tornLog)
	if err != nil {
		t.Fatal(err)
	}
	killed.WriteFile(tornLog, append(data, frame[:len(frame)/2]...))
	for _, name := range pinnedFiles {
		data, err := killed.ReadFile(name)
		if err != nil {
			continue
		}
		path := filepath.Join(pinnedDir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// encodeLog returns the log bytes a fresh WAL writes for recs.
func encodeLog(t testing.TB, recs ...wal.Record) []byte {
	t.Helper()
	fs := faultfs.New()
	w, _, err := wal.Open(fs, wal.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("wal.log")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPinnedWALDirectory opens the pinned directory with the current
// code: the recovered ratings must equal an in-memory store's after it
// Submits pinnedHistory, and the RecoveryReport must equal the recorded
// one.
func TestPinnedWALDirectory(t *testing.T) {
	if *updatePinned {
		writePinned(t)
	}
	products, hist, torn := pinnedHistory()
	st, rep, err := Open(pinnedHorizon, products, Options{FS: pinnedFS(t), Shards: pinnedShards})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	want := RecoveryReport{SnapshotRatings: 6, ReplayedRatings: 8, TruncatedBytes: int64(len(encodeLog(t, torn)) / 2)}
	if !reflect.DeepEqual(*rep, want) {
		t.Fatalf("report %+v, want %+v", *rep, want)
	}
	ref, err := New(pinnedHorizon, products, pinnedShards)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range hist {
		if _, err := ref.Submit(context.Background(), r.Product, r.Rater, r.Value, r.Day); err != nil {
			t.Fatal(err)
		}
	}
	if got, exp := st.View(), ref.View(); !reflect.DeepEqual(got, exp) {
		t.Fatalf("recovered %+v, want %+v", got, exp)
	}
}

// TestPinnedWALBytes re-encodes the pinned files from pinnedHistory and
// compares them byte for byte: the snapshot from the checkpointed
// shard's first pinnedSnapEvery ratings, each log from the records
// submitted after its shard's checkpoint, and the manifest from its
// fields. A log frame's receipt time is the one thing the history does
// not fix, so it is read back from the recorded frame.
func TestPinnedWALBytes(t *testing.T) {
	products, hist, torn := pinnedHistory()
	snapShard := pinnedSnapShard(products)
	part, err := New(pinnedHorizon, products, pinnedShards)
	if err != nil {
		t.Fatal(err)
	}
	var tails [pinnedShards][]wal.Record
	snapped := 0
	for _, r := range hist {
		s := Route(r.Product, pinnedShards)
		if s == snapShard && snapped < pinnedSnapEvery {
			snapped++
			if _, err := part.Submit(context.Background(), r.Product, r.Rater, r.Value, r.Day); err != nil {
				t.Fatal(err)
			}
			continue
		}
		tails[s] = append(tails[s], r)
	}

	want := map[string][]byte{}
	snapFS := faultfs.New()
	w, _, err := wal.Open(snapFS, wal.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Compact(part.shards[snapShard].data); err != nil {
		t.Fatal(err)
	}
	w.Close()
	want[wal.ShardDir(snapShard)+"/snapshot.json"], _ = snapFS.ReadFile("snapshot.json")
	for s := range tails {
		logName := wal.ShardDir(s) + "/wal.log"
		recorded, err := os.ReadFile(filepath.Join(pinnedDir, logName))
		if err != nil {
			t.Fatal(err)
		}
		fs := faultfs.New()
		fs.WriteFile(logName, recorded)
		sub, err := wal.Sub(fs, wal.ShardDir(s))
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		w, _, err := wal.Open(sub, wal.Options{}, wal.ReplayFunc(func(r wal.Record, _ bool) {
			if i < len(tails[s]) {
				tails[s][i].ReceivedUnixNano = r.ReceivedUnixNano
			}
			i++
		}))
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
		if i != len(tails[s]) {
			t.Fatalf("%s holds %d records, want %d", logName, i, len(tails[s]))
		}
		want[logName] = encodeLog(t, tails[s]...)
		if s != snapShard {
			frame := encodeLog(t, torn)
			want[logName] = append(want[logName], frame[:len(frame)/2]...)
		}
	}
	mfs := faultfs.New()
	if err := wal.WriteManifest(mfs, wal.Manifest{Version: wal.ManifestVersion, Shards: pinnedShards, Hash: wal.RouteHashName}); err != nil {
		t.Fatal(err)
	}
	want["wal-manifest.json"], _ = mfs.ReadFile("wal-manifest.json")

	for _, name := range pinnedFiles {
		got, err := os.ReadFile(filepath.Join(pinnedDir, name))
		if os.IsNotExist(err) {
			got = nil
		} else if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[name]) {
			t.Errorf("%s: recorded %d bytes %x\nre-encoded %d bytes %x", name, len(got), got, len(want[name]), want[name])
		}
	}
}
