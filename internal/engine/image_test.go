package engine

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/epoch"
)

// coldImage evaluates d cold on a fresh state and returns its image.
func coldImage(t *testing.T, e *Engine, d *dataset.Dataset) []byte {
	t.Helper()
	st := NewState()
	mustResume(t, e, st, d)
	img := st.Image(context.Background())
	if img == nil {
		t.Fatal("an evaluated state encoded no image")
	}
	return img
}

// requireEntriesMatchSeries checks the memo contract a restore must keep:
// every valid entry describes the product's current series, an epoch
// entry the prefix [0, hi) and the final entry the whole series.
func requireEntriesMatchSeries(t *testing.T, label string, st *EvalState, d *dataset.Dataset) {
	t.Helper()
	for i := range st.prods {
		s, m := d.Products[i].Ratings, &st.prods[i].memo
		for ep, ent := range m.epochs {
			_, hi := epoch.PeriodInterval(ep, d.HorizonDays)
			if start, end := s.BetweenIndex(0, hi); ent.valid && ent.prefixLen != end-start {
				t.Fatalf("%s: product %d epoch %d entry covers %d ratings, [0, %v) holds %d", label, i, ep, ent.prefixLen, hi, end-start)
			}
		}
		if m.final.valid && m.final.n != len(s) {
			t.Fatalf("%s: product %d final entry covers %d ratings, the series holds %d", label, i, m.final.n, len(s))
		}
	}
}

// TestImageRestoreMatchesCold restores a cold state's image into a fresh
// state, with its decisions and without them: every product is restored.
// The decided image is exact, and the Resume after it is a memo replay
// that analyzes nothing; the signals-only one is not, and its Resume
// recomputes no detector signal and hits no trust tier. Either Resume
// equals a cold evaluation bit for bit, and the state then re-encodes the
// decided image byte for byte.
func TestImageRestoreMatchesCold(t *testing.T) {
	e := &Engine{Detect: detect.DefaultConfig(), Workers: 2}
	d := versionedTestDataset(t, 41, 5, 300)
	img := coldImage(t, e, d)
	dec, err := decodeImage(img)
	if err != nil || !dec.decided {
		t.Fatalf("a cold state's image: decided %v, %v", dec != nil && dec.decided, err)
	}
	dec.decided = false
	for _, tc := range []struct {
		name  string
		img   []byte
		exact bool
		want  Stats
	}{
		{"decided", img, true, Stats{MemoHits: 5, Restored: 5}},
		// Every product has ratings in each of the 10 epochs: 11 passes,
		// each deciding with both signal parts reused.
		{"signals-only", dec.encode(), false, Stats{Analyzed: 5 * 11, SignalHits: 2 * 5 * 11, MemoMisses: 5 * 11, Restored: 5}},
	} {
		st := NewState()
		k, exact, err := e.Restore(context.Background(), st, d, tc.img)
		if err != nil || k != len(d.Products) || exact != tc.exact {
			t.Fatalf("%s: Restore = %d, %v, %v; want %d, %v, nil", tc.name, k, exact, err, len(d.Products), tc.exact)
		}
		requireEntriesMatchSeries(t, tc.name, st, d)
		requireEqualResults(t, tc.name, mustResume(t, e, st, d), reference(t, d))
		if got := st.Stats(); got != tc.want {
			t.Fatalf("%s: stats after a restored Resume: %+v, want %+v", tc.name, got, tc.want)
		}
		if again := st.Image(context.Background()); !bytes.Equal(again, img) {
			t.Fatalf("%s: the restored state re-encodes %d bytes, not the %d-byte image", tc.name, len(again), len(img))
		}
		// One more submit to a restored product: its empty carry is rebuilt.
		d := d.Clone()
		if err := touch(d, d.Products[0].ID, dataset.Rating{Day: 75, Value: 1, Rater: "late"}); err != nil {
			t.Fatal(err)
		}
		requireEqualResults(t, tc.name+", submit after restore", mustResume(t, e, st, d), reference(t, d))
	}
}

// TestImageRestoreStale restores an image into data that moved on after it
// was written. A product whose leading ratings still match keeps exactly
// the entries whose prefix is unchanged; any other product is evaluated
// cold; and every Resume equals a cold evaluation.
func TestImageRestoreStale(t *testing.T) {
	e := &Engine{Detect: detect.DefaultConfig(), Workers: 1}
	base := versionedTestDataset(t, 43, 4, 300)
	img := coldImage(t, e, base)
	edits := []struct {
		name     string
		edit     func(d *dataset.Dataset)
		restored int
	}{
		{"tail rating", func(d *dataset.Dataset) {
			s := d.Products[1].Ratings
			touch(d, d.Products[1].ID, dataset.Rating{Day: (s[len(s)-1].Day + d.HorizonDays) / 2, Value: 5, Rater: "tail"})
		}, 4},
		{"mid-history rating", func(d *dataset.Dataset) {
			touch(d, d.Products[1].ID, dataset.Rating{Day: 100, Value: 0.5, Rater: "mid"})
		}, 3},
		{"same length, one value changed", func(d *dataset.Dataset) {
			p := &d.Products[0]
			p.Ratings = append(dataset.Series(nil), p.Ratings...)
			j := len(p.Ratings) / 2
			p.Ratings[j].Value = 5 - p.Ratings[j].Value
			p.Version++
		}, 3},
		{"same length, one rater changed", func(d *dataset.Dataset) {
			p := &d.Products[2]
			p.Ratings = append(dataset.Series(nil), p.Ratings...)
			p.Ratings[3].Rater = "someone-else"
			p.Version++
		}, 3},
		{"every product shorter", func(d *dataset.Dataset) {
			for i := range d.Products {
				p := &d.Products[i]
				p.Ratings = p.Ratings[:len(p.Ratings)-1]
				p.Version++
			}
		}, 0},
	}
	for _, tc := range edits {
		d := base.Clone()
		tc.edit(d)
		st := NewState()
		k, exact, err := e.Restore(context.Background(), st, d, img)
		if err != nil || k != tc.restored || exact {
			t.Fatalf("%s: Restore = %d, %v, %v; want %d, false, nil", tc.name, k, exact, err, tc.restored)
		}
		requireEntriesMatchSeries(t, tc.name, st, d)
		requireEqualResults(t, tc.name, mustResume(t, e, st, d), reference(t, d))
		if err := touch(d, d.Products[1].ID, dataset.Rating{Day: 150, Value: 4, Rater: "after"}); err != nil {
			t.Fatal(err)
		}
		requireEqualResults(t, tc.name+", then a submit", mustResume(t, e, st, d), reference(t, d))
	}
}

// TestImageRestoreCancelled restores under a cancelled context, at one
// worker and at two (helper goroutines hash ahead): Restore returns the
// context's error, restores nothing and leaves the state reset, so the
// Resume after it evaluates cold and equals a cold evaluation.
func TestImageRestoreCancelled(t *testing.T) {
	d := versionedTestDataset(t, 41, 5, 300)
	img := coldImage(t, &Engine{Detect: detect.DefaultConfig()}, d)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2} {
		e := &Engine{Detect: detect.DefaultConfig(), Workers: workers}
		st := NewState()
		if k, exact, err := e.Restore(ctx, st, d, img); !errors.Is(err, context.Canceled) || k != 0 || exact {
			t.Fatalf("workers %d: Restore = %d, %v, %v; want 0, false, context.Canceled", workers, k, exact, err)
		}
		if st.CompletedEpochs() != 0 || st.prods != nil || st.Stats().Restored != 0 {
			t.Fatalf("workers %d: a cancelled restore left state behind", workers)
		}
		requireEqualResults(t, "after a cancelled restore", mustResume(t, e, st, d), reference(t, d))
	}
}

// TestSeriesDigestChunking checks seriesHash against SHA-256 over the
// whole (Day bits, Value bits, u32 rater length, rater) encoding in one
// buffer, on raters of every length around the scratch buffer's size, so
// no split of a tuple across flushes changes a digest.
func TestSeriesDigestChunking(t *testing.T) {
	var s dataset.Series
	for _, n := range []int{0, 1, 7, 491, 492, 493, 511, 512, 513, 1500, 3} {
		s = append(s, dataset.Rating{Day: float64(n) / 3, Value: math.Copysign(0, -1), Rater: strings.Repeat("r", n)})
	}
	h := newSeriesHash()
	for end := 0; end <= len(s); end++ {
		var buf []byte
		for _, r := range s[:end] {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Day))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Value))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Rater)))
			buf = append(buf, r.Rater...)
		}
		if got, want := h.digest(s[:end]), sha256.Sum256(buf); got != want {
			t.Fatalf("first %d ratings: digest %x, want %x", end, got, want)
		}
	}
}

// TestImageRefused checks that an image Restore must not use is an error
// that leaves the state untouched: another engine configuration, horizon
// or product list, a flipped byte, a truncation, trailing bytes or an
// unknown format version.
func TestImageRefused(t *testing.T) {
	e := &Engine{Detect: detect.DefaultConfig(), Workers: 1}
	d := versionedTestDataset(t, 47, 3, 120)
	img := coldImage(t, e, d)

	other := *e
	other.Detect.HCWindowRatings++
	noFilter := *e
	noFilter.DisableFilter = true
	shorter := d.Clone()
	shorter.HorizonDays = 119
	renamed := d.Clone()
	renamed.Products[2].ID = "other"
	flipped := bytes.Clone(img)
	flipped[len(flipped)/2] ^= 1
	version := bytes.Clone(img)
	binary.LittleEndian.PutUint32(version[4:], imageVersion+1)
	cases := []struct {
		name string
		e    *Engine
		d    *dataset.Dataset
		img  []byte
	}{
		{"detector config", &other, d, img},
		{"filter ablation", &noFilter, d, img},
		{"horizon", e, shorter, img},
		{"product list", e, renamed, img},
		{"flipped byte", e, d, flipped},
		{"truncated", e, d, img[:len(img)-1]},
		{"trailing byte", e, d, append(bytes.Clone(img), 0)},
		{"format version", e, d, version},
		{"empty", e, d, nil},
	}
	for _, tc := range cases {
		st := NewState()
		if k, _, err := tc.e.Restore(context.Background(), st, tc.d, tc.img); err == nil {
			t.Fatalf("%s: Restore accepted the image (%d products)", tc.name, k)
		}
		if st.CompletedEpochs() != 0 || st.prods != nil || st.Stats().Restored != 0 {
			t.Fatalf("%s: a refused image changed the state", tc.name)
		}
	}
}

// FuzzEngineImage feeds arbitrary bytes to Restore, and to the decoder
// behind a valid header and checksum, so the payload decoder is explored
// too. Nothing may panic or allocate past a small multiple of its input;
// an image Restore accepts must leave a Resume that equals a cold
// evaluation bit for bit and must re-encode byte for byte. The seeds are
// real images: of the fuzz dataset, of an edited copy, and cut short; and
// the pinned version-2 image, whole and with its decisions section cut
// short.
func FuzzEngineImage(f *testing.F) {
	eng := &Engine{Detect: detect.DefaultConfig(), Workers: 1}
	base := fuzzEditDataset()
	st := NewState()
	if _, err := eng.Resume(context.Background(), st, base); err != nil {
		f.Fatal(err)
	}
	img := st.Image(context.Background())
	f.Add(img)
	f.Add(img[imageHeaderSize:])
	f.Add(img[:len(img)/3])
	edited := base.Clone()
	edited.Products[1].Ratings = edited.Products[1].Ratings.Insert(dataset.Rating{Day: 20, Value: 1, Rater: "x"})
	edited.Products[1].Version++
	if _, err := eng.Resume(context.Background(), st, edited); err != nil {
		f.Fatal(err)
	}
	f.Add(st.Image(context.Background()))
	pinned, err := os.ReadFile(filepath.Join("testdata", "engine-v2.img"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pinned[imageHeaderSize:])
	f.Add(pinned[imageHeaderSize : len(pinned)-100])

	f.Fuzz(func(t *testing.T, data []byte) {
		d := base.Clone()
		st := NewState()
		if _, _, err := eng.Restore(context.Background(), st, d, data); err == nil {
			requireEqualResults(t, "accepted image", mustResume(t, eng, st, d), reference(t, d))
			if img, _ := decodeImage(data); !bytes.Equal(img.encode(), data) {
				t.Fatalf("an accepted %d-byte image does not re-encode byte for byte", len(data))
			}
		}
		framed := make([]byte, imageHeaderSize, imageHeaderSize+len(data))
		copy(framed, imageMagic)
		binary.LittleEndian.PutUint32(framed[4:], imageVersion)
		binary.LittleEndian.PutUint32(framed[8:], crc32.ChecksumIEEE(data))
		decodeImage(append(framed, data...))
	})
}

// TestFingerprintCoversEveryField flips each detector config field and
// each ablation flag in turn: every flip must change the fingerprint, and
// the pool width must not.
func TestFingerprintCoversEveryField(t *testing.T) {
	base := Engine{Detect: detect.DefaultConfig()}
	want := fingerprint(base)
	w := base
	w.Workers = 8
	if fingerprint(w.key()) != want {
		t.Fatal("the pool width changed the fingerprint")
	}
	flips := []func(*Engine){
		func(e *Engine) { e.DisableFilter = true },
		func(e *Engine) { e.DisableTrustWeighting = true },
		func(e *Engine) { e.Detect.MCThreshold1 = math.Nextafter(e.Detect.MCThreshold1, 10) },
		func(e *Engine) { e.Detect.METhreshold = math.Nextafter(e.Detect.METhreshold, 10) },
		func(e *Engine) { e.Detect.MEMethod++ },
		func(e *Engine) { e.Detect.HCStepRatings++ },
		func(e *Engine) { e.Detect.ARCRelDelta = math.Copysign(0, -1) },
	}
	for i, flip := range flips {
		e := base
		flip(&e)
		if fingerprint(e) == want {
			t.Fatalf("flip %d left the fingerprint unchanged", i)
		}
	}
}

// TestImagePinnedFormat pins the on-disk format. testdata/engine-v2.img is
// the image a cold Resume of testdata/dataset.json left, recorded by an
// earlier build of the encoder, and testdata/digests.txt holds each
// product's rating count and series digest. The current code must decode
// that image, restore every product from it exactly, and re-encode the
// restored state byte for byte, before and after the Resume it leaves, so
// images already on disk stay valid. testdata/engine.img is the same
// evaluation's image in format version 1, which holds no decisions: it
// must be refused by name.
func TestImagePinnedFormat(t *testing.T) {
	img, err := os.ReadFile(filepath.Join("testdata", "engine-v2.img"))
	if err != nil {
		t.Fatal(err)
	}
	v1, err := os.ReadFile(filepath.Join("testdata", "engine.img"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join("testdata", "dataset.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d, err := dataset.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Products {
		d.Products[i].Version = 1
	}
	digests, err := os.ReadFile(filepath.Join("testdata", "digests.txt"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(string(digests))
	if len(lines) != 3*len(d.Products) {
		t.Fatalf("digests.txt holds %d fields, want 3 per product", len(lines))
	}
	dec, err := decodeImage(img)
	if err != nil {
		t.Fatalf("the pinned image does not decode: %v", err)
	}
	h := newSeriesHash()
	for i, p := range d.Products {
		id, n, sum := lines[3*i], lines[3*i+1], lines[3*i+2]
		got := h.digest(p.Ratings)
		if id != p.ID || n != strconv.Itoa(len(p.Ratings)) || sum != hex.EncodeToString(got[:]) {
			t.Fatalf("product %d: digests.txt says %s %s %s, the dataset has %s %d %x", i, id, n, sum, p.ID, len(p.Ratings), got)
		}
		if ip := dec.prods[i]; ip.id != p.ID || int(ip.n) != len(p.Ratings) || ip.digest != got {
			t.Fatalf("product %d: the image holds %s, %d ratings, %x", i, ip.id, ip.n, ip.digest)
		}
	}

	e := &Engine{Detect: detect.DefaultConfig(), Workers: 2}
	st := NewState()
	if _, _, err := e.Restore(context.Background(), st, d, v1); err == nil || !strings.HasSuffix(err.Error(), "format version 1, want 2") {
		t.Fatalf("Restore of the version-1 image: %v, want format version 1, want 2", err)
	}
	if st.CompletedEpochs() != 0 || st.prods != nil {
		t.Fatal("a refused version-1 image changed the state")
	}
	k, exact, err := e.Restore(context.Background(), st, d, img)
	if err != nil || k != len(d.Products) || !exact {
		t.Fatalf("Restore = %d, %v, %v; want %d, true, nil", k, exact, err, len(d.Products))
	}
	requireEntriesMatchSeries(t, "pinned", st, d)
	if again := st.Image(context.Background()); !bytes.Equal(again, img) {
		t.Fatalf("the restored state re-encodes %d bytes, not the pinned %d-byte image", len(again), len(img))
	}
	requireEqualResults(t, "pinned", mustResume(t, e, st, d), reference(t, d))
	if again := st.Image(context.Background()); !bytes.Equal(again, img) {
		t.Fatalf("the resumed state re-encodes %d bytes, not the pinned %d-byte image", len(again), len(img))
	}
	if again := dec.encode(); !bytes.Equal(again, img) {
		t.Fatalf("the decoded image re-encodes %d bytes, not the pinned %d", len(again), len(img))
	}
}
