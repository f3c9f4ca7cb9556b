package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/faultfs"
)

// imageHorizon and imageProducts shape the services of the engine-image
// tests and of the oracle.
const imageHorizon = 120.0

var imageProducts = []string{"a", "b", "c"}

// imageScheme returns the P-scheme a service of the image tests and the
// oracle runs under: variant 0 is the default configuration, variant 1
// one whose detectors compute other signals.
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

// countTrue counts the marked ratings.
func countTrue(marks []bool) int {
	n := 0
	for _, m := range marks {
		if m {
			n++
		}
	}
	return n
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

// TestEngineImageOldVersion opens a service whose engine.img is in format
// version 3 (the engine's testdata/engine-v3.img): the first evaluation logs once that
// the image is ignored and evaluates cold, the next does not read it
// again, and Close replaces it with a version-4 image, from which the next
// open restores every product exactly.
func TestEngineImageOldVersion(t *testing.T) {
	ctx := context.Background()
	v3, err := os.ReadFile(filepath.Join("..", "engine", "testdata", "engine-v3.img"))
	if err != nil {
		t.Fatal(err)
	}
	fs := faultfs.New()
	var logged bytes.Buffer
	open := func() *Service {
		t.Helper()
		svc, _, err := OpenWAL(imageScheme(0), imageHorizon, imageProducts, WALOptions{FS: fs, SyncEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		svc.SetLogger(log.New(&logged, "", 0))
		return svc
	}
	svc := open()
	for i := 0; i < 40; i++ {
		svc.Submit(ctx, imageProducts[i%3], fmt.Sprintf("r%d", i), float64(i%11)/2, float64(i)*2.9)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	fs.WriteFile(engineImage, v3)

	svc = open()
	for i := 0; i < 2; i++ {
		if _, err := svc.Scores(ctx, "a"); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			svc.Submit(ctx, "b", "late", 4, 100)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(logged.String(), "engine image ignored, evaluating cold: engine image: format version 3, want 4"); n != 1 {
		t.Fatalf("the version-3 image was reported %d times, want once; log:\n%s", n, logged.String())
	}
	img, err := fs.ReadFile(engineImage)
	if err != nil || len(img) < 8 || string(img[:4]) != "RENG" || binary.LittleEndian.Uint32(img[4:]) != 4 {
		t.Fatalf("Close after a cold evaluation wrote %d bytes (%v), want a version-4 image", len(img), err)
	}

	svc = open()
	if _, err := svc.Scores(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(logged.String(), "engine image: restored 3 of 3 products, exact true") {
		t.Fatalf("the version-4 image was not restored exactly; log:\n%s", logged.String())
	}
}

// TestRestoredTrustConcurrentLookups reads rater trust from many
// goroutines at once on a service that has just restored its evaluation
// from engine.img. An exact restore interns nothing, so the first lookups
// build the rater dictionary's name index together (trust.SymbolsOf
// defers it), which -race checks; every reader must see the trust a cold
// evaluation of the same ratings gives.
func TestRestoredTrustConcurrentLookups(t *testing.T) {
	ctx := context.Background()
	fs := faultfs.New()
	cold, err := New(imageScheme(0), imageHorizon, imageProducts)
	if err != nil {
		t.Fatal(err)
	}
	svc, _, err := OpenWAL(imageScheme(0), imageHorizon, imageProducts, WALOptions{FS: fs, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	raters := []string{"nobody"}
	for i := 0; i < 60; i++ {
		r := fmt.Sprintf("r%d", i%25)
		if i < 25 {
			raters = append(raters, r)
		}
		for _, s := range []*Service{cold, svc} {
			s.Submit(ctx, imageProducts[i%3], r, float64(i%11)/2, float64(i)*1.9)
		}
	}
	if _, err := svc.Scores(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	svc, _, err = OpenWAL(imageScheme(0), imageHorizon, imageProducts, WALOptions{FS: fs, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.Scores(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if got := svc.engState.Stats().Restored; got != uint64(len(imageProducts)) {
		t.Fatalf("restored %d products, want %d", got, len(imageProducts))
	}
	want := make([]float64, len(raters))
	for i, r := range raters {
		want[i] = cold.Trust(ctx, r)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8*len(raters))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range raters {
				i := (k + 3*g) % len(raters)
				if got := svc.Trust(ctx, raters[i]); got != want[i] {
					errs <- fmt.Sprintf("reader %d: trust(%s) = %v, cold evaluation %v", g, raters[i], got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
