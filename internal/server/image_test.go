package server

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/agg"
	"repro/internal/dataset"
	"repro/internal/faultfs"
	"repro/internal/stats"
)

// imageHorizon and imageProducts shape the engine-image property test.
const imageHorizon = 120.0

var imageProducts = []string{"a", "b", "c"}

// imageScheme returns the P-scheme a service of the property test runs
// under: variant 0 is the default configuration, variant 1 one whose
// detectors compute other signals.
func imageScheme(variant int) *agg.PScheme {
	p := agg.NewPScheme()
	p.Workers = 1
	if variant == 1 {
		p.Detect.MCWindowDays = 20
		p.Detect.HCWindowRatings = 20
		p.Detect.HCStepRatings = 5
	}
	return p
}

// imageModel is what the property test knows of the engine image on disk:
// the ratings of the evaluation it was written from and that evaluation's
// scheme variant (view is nil while there is none).
type imageModel struct {
	view    *dataset.Dataset
	variant int
}

// restorable counts the products of d whose series start with the series
// the image was written for: the products a restore under variant must
// seed, and no others.
func (m imageModel) restorable(d *dataset.Dataset, variant int) int {
	if m.view == nil || m.variant != variant {
		return 0
	}
	k := 0
	for i, p := range d.Products {
		old := m.view.Products[i].Ratings
		if len(old) <= len(p.Ratings) && slices.Equal(old, p.Ratings[:len(old)]) {
			k++
		}
	}
	return k
}

// imageLife is one open of the durable service under test, with what the
// test tracks about it: its scheme variant, and the ratings of its last
// evaluation since the open or the last Load (nil: none, so its Close
// writes no image).
type imageLife struct {
	svc     *Service
	variant int
	evalled *dataset.Dataset
}

// openImageLife opens a service over fs and checks that its first
// evaluation restores exactly the products the model says it may, then
// that everything it serves equals a cold evaluation.
func openImageLife(t *testing.T, label string, fs *faultfs.FS, shards, variant int, m imageModel) (*imageLife, int) {
	t.Helper()
	svc, _, err := OpenWAL(imageScheme(variant), imageHorizon, imageProducts, WALOptions{FS: fs, Shards: shards, SyncEvery: 1})
	if err != nil {
		t.Fatalf("%s: open: %v", label, err)
	}
	l := &imageLife{svc: svc, variant: variant}
	want := m.restorable(svc.dataView(), variant)
	l.read(t, label)
	if got := svc.engState.Stats().Restored; got != uint64(want) {
		t.Fatalf("%s: the first evaluation restored %d products from the engine image, want %d", label, got, want)
	}
	return l, want
}

// read evaluates the service through its public reads and requires every
// served bit to equal a cold, memo-off evaluation of the ratings it holds:
// scores, report mark counts and trust, and, from the engine state the
// service keeps, every mark and the causal Published table.
func (l *imageLife) read(t *testing.T, label string) {
	t.Helper()
	ctx := context.Background()
	svc := l.svc
	for _, id := range imageProducts {
		if _, err := svc.Scores(ctx, id); err != nil {
			t.Fatalf("%s: scores: %v", label, err)
		}
	}
	view := svc.dataView()
	l.evalled = view
	memoOff := view.Clone()
	for i := range memoOff.Products {
		memoOff.Products[i].Version = 0
	}
	eng := imageScheme(l.variant).Engine()
	cold, err := eng.Evaluate(ctx, memoOff)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range imageProducts {
		scores, err := svc.Scores(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, label+": "+id+" scores", scores, cold.Table[id])
		rep, err := svc.Inspect(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if n := countTrue(cold.Suspicious[id]); rep.Suspicious != n || rep.Stale {
			t.Fatalf("%s: %s report has %d marks (stale %v), a cold evaluation %d", label, id, rep.Suspicious, rep.Stale, n)
		}
	}
	for _, rt := range cold.Trust.Snapshot() {
		if got := svc.Trust(ctx, rt.Rater); math.Float64bits(got) != math.Float64bits(rt.Trust) {
			t.Fatalf("%s: trust(%s) = %v, a cold evaluation %v", label, rt.Rater, got, rt.Trust)
		}
	}
	svc.mu.Lock()
	served := svc.pResult.Suspicious
	warm, err := eng.Resume(ctx, svc.engState, view)
	svc.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range imageProducts {
		if !slices.Equal(served[id], cold.Suspicious[id]) || !slices.Equal(warm.Suspicious[id], cold.Suspicious[id]) {
			t.Fatalf("%s: %s marks differ from a cold evaluation", label, id)
		}
		requireSameBits(t, label+": "+id+" published", warm.Published[id], cold.Published[id])
	}
}

func requireSameBits(t *testing.T, label string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d values vs %d", label, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: period %d: %v vs %v", label, i, a[i], b[i])
		}
	}
}

func countTrue(marks []bool) int {
	n := 0
	for _, m := range marks {
		if m {
			n++
		}
	}
	return n
}

// close closes the service cleanly, and returns the image model after it:
// a service that evaluated since its open or its last Load writes an image
// of that evaluation.
func (l *imageLife) close(t *testing.T, m imageModel) imageModel {
	t.Helper()
	if err := l.svc.Close(); err != nil {
		t.Fatal(err)
	}
	if l.evalled != nil {
		m = imageModel{view: l.evalled, variant: l.variant}
	}
	return m
}

// imageStep applies one random step of the second life: an in-order,
// out-of-order, duplicate or invalid submit, a read, or a Load.
func (l *imageLife) step(t *testing.T, rng *rand.Rand, label string, rater *int) {
	t.Helper()
	ctx := context.Background()
	id := imageProducts[rng.IntN(len(imageProducts))]
	view := l.svc.dataView()
	p, err := view.Product(id)
	if err != nil {
		t.Fatal(err)
	}
	*rater++
	r := dataset.Rating{Rater: fmt.Sprintf("r%d", *rater%70), Value: float64(rng.IntN(11)) / 2, Day: rng.Float64() * imageHorizon}
	switch op := rng.IntN(20); {
	case op < 9: // in order: at or after the product's last rating
		if n := len(p.Ratings); n > 0 {
			last := p.Ratings[n-1].Day
			r.Day = last + rng.Float64()*(imageHorizon-last)
		}
	case op < 12: // out of order: r.Day as drawn
	case op < 14: // a duplicate rater on the product
		if len(p.Ratings) > 0 {
			r.Rater = p.Ratings[rng.IntN(len(p.Ratings))].Rater
		}
	case op < 16: // invalid
		r.Value = 9
	case op < 19:
		l.read(t, label)
		return
	default: // Load the same days and raters with some values changed
		d := view.Clone()
		for i := range d.Products {
			for j := range d.Products[i].Ratings {
				if rng.IntN(8) == 0 {
					d.Products[i].Ratings[j].Value = float64(rng.IntN(11)) / 2
				}
			}
		}
		if err := l.svc.Load(ctx, d); err != nil {
			t.Fatal(err)
		}
		l.evalled = nil
		return
	}
	l.svc.Submit(ctx, id, r.Rater, r.Value, r.Day) // rejections are part of the program
}

// TestEngineImageProperty runs random programs against a durable P-scheme
// service and its engine image. A history is written and evaluated, and
// Close writes the image. A second open runs random submits (in order,
// out of order, duplicate and invalid), reads and Loads, and ends in a
// clean Close, a process kill (Clone) or a power loss (CrashImage). A
// third open, under the same or another detector configuration, reads.
// Every first evaluation must restore exactly the products whose series
// still start with the series the image holds, under its configuration,
// and every read, and one more read after a submit, must equal a cold
// evaluation of the recovered ratings bit for bit. The image is a cache:
// it may change time, never a served bit.
func TestEngineImageProperty(t *testing.T) {
	seeds := 100
	if testing.Short() {
		seeds = 25
	}
	cleanRestores := 0
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		rng := stats.NewRNG(seed)
		shards := 1 + rng.IntN(2)
		fs := faultfs.New()
		label := fmt.Sprintf("seed %d", seed)

		// First life: a history, one evaluation, Close writes the image.
		svc, _, err := OpenWAL(imageScheme(0), imageHorizon, imageProducts, WALOptions{FS: fs, Shards: shards, SyncEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		l := &imageLife{svc: svc}
		rater := 0
		for i := 0; i < 60+rng.IntN(60); i++ {
			rater++
			svc.Submit(context.Background(), imageProducts[rng.IntN(3)], fmt.Sprintf("r%d", rater%70), float64(rng.IntN(11))/2, rng.Float64()*imageHorizon)
		}
		l.read(t, label+", first life")
		m := l.close(t, imageModel{})
		if _, err := fs.ReadFile(engineImage); err != nil {
			t.Fatalf("%s: Close wrote no engine image: %v", label, err)
		}

		// Second life: random steps, then a clean Close, a kill or a power loss.
		variant := 0
		if rng.IntN(8) == 0 {
			variant = 1
		}
		l, _ = openImageLife(t, label+", second life", fs, shards, variant, m)
		for i := 0; i < 4+rng.IntN(16); i++ {
			l.step(t, rng, fmt.Sprintf("%s, step %d", label, i), &rater)
		}
		next, how := fs, "clean close"
		switch rng.IntN(3) {
		case 0:
			m = l.close(t, m)
		case 1:
			next, how = fs.Clone(), "process kill"
			l.svc.Close()
		default:
			next, how = fs.CrashImage(), "power loss"
			l.svc.Close()
		}

		// Third life: the first read restores, a submit, another read.
		if rng.IntN(8) == 0 {
			variant = 1 - variant
		}
		label = fmt.Sprintf("%s, reopen after %s under variant %d", label, how, variant)
		l, k := openImageLife(t, label, next, shards, variant, m)
		if how == "clean close" && k > 0 {
			cleanRestores++
		}
		l.svc.Submit(context.Background(), imageProducts[rng.IntN(3)], "one-more", 1, imageHorizon-1)
		l.read(t, label+", after one more submit")
		l.close(t, m)
	}
	if cleanRestores < seeds/8 {
		t.Fatalf("only %d of %d programs restored from an image after a clean close", cleanRestores, seeds)
	}
}

// TestEngineImageLifecycle pins when the image is read and written: an
// in-memory service never touches one; a durable service that never
// evaluated writes none; the first evaluation reads it once per open and
// counts what it restored in engine_image_restored_products_total, unless
// its context was cancelled, which leaves the image to the next one; a
// Close whose state is exactly what it restored rewrites nothing; and an
// open never reads it, so a corrupt image fails nothing but the restore.
func TestEngineImageLifecycle(t *testing.T) {
	ctx := context.Background()
	fs := faultfs.New()
	open := func() *Service {
		t.Helper()
		svc, _, err := OpenWAL(imageScheme(0), imageHorizon, imageProducts, WALOptions{FS: fs, SyncEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	svc := open()
	for i := 0; i < 40; i++ {
		svc.Submit(ctx, imageProducts[i%3], fmt.Sprintf("r%d", i), float64(i%11)/2, float64(i)*2.9)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile(engineImage); err == nil {
		t.Fatal("a service that never evaluated wrote an engine image")
	}

	svc = open()
	if _, err := svc.Scores(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := fs.ReadFile(engineImage)
	if err != nil {
		t.Fatalf("Close after an evaluation wrote no engine image: %v", err)
	}

	svc = open()
	// A restore its context cancelled is not an outcome: the image is
	// left for the next evaluation.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	svc.mu.Lock()
	svc.restoreImageLocked(cancelled, svc.scheme.(*agg.PScheme).Engine(), svc.store.View(), svc.store.Generation())
	read := svc.imgRead
	svc.mu.Unlock()
	if read || svc.engState.Stats().Restored != 0 {
		t.Fatalf("a cancelled restore marked the image read (%v) or restored %d products", read, svc.engState.Stats().Restored)
	}
	if _, err := svc.Scores(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if got := svc.engState.Stats().Restored; got != 3 {
		t.Fatalf("restored %d products, want 3", got)
	}
	fs.WriteFile(engineImage, []byte("not an image"))
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := fs.ReadFile(engineImage); string(got) != "not an image" {
		t.Fatal("a Close whose state is exactly what it restored rewrote the image")
	}

	svc = open()
	if _, err := svc.Scores(ctx, "a"); err != nil {
		t.Fatalf("a corrupt engine image failed the first read: %v", err)
	}
	if got := svc.engState.Stats().Restored; got != 0 {
		t.Fatalf("restored %d products from a corrupt image", got)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := fs.ReadFile(engineImage); string(got) == "not an image" || len(got) != len(img) {
		t.Fatal("Close after a cold evaluation did not replace the corrupt image")
	}

	mem, err := New(imageScheme(0), imageHorizon, imageProducts)
	if err != nil {
		t.Fatal(err)
	}
	mem.Submit(ctx, "a", "x", 3, 1)
	if _, err := mem.Scores(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if err := mem.Close(); err != nil || mem.engState.Stats().Restored != 0 {
		t.Fatalf("in-memory close: %v, restored %d", err, mem.engState.Stats().Restored)
	}
}
