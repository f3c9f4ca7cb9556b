package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/epoch"
	"repro/internal/trust"
)

// coldImage evaluates d cold on a fresh state and returns its image.
func coldImage(t testing.TB, e *Engine, d *dataset.Dataset) []byte {
	t.Helper()
	st := NewState()
	mustResume(t, e, st, d)
	img := st.Image(context.Background())
	if img == nil {
		t.Fatal("an evaluated state encoded no image")
	}
	return img
}

// passPrefix is the prefix of s that pass ep analyzes: [0, hi) for epoch
// ep, the whole series for the final pass, ep = the period count.
func passPrefix(s dataset.Series, ep int, horizon float64) dataset.Series {
	if ep == epoch.Periods(horizon) {
		return s
	}
	_, hi := epoch.PeriodInterval(ep, horizon)
	return s.Between(0, hi)
}

// requireEntriesMatchSeries checks the memo contract a restore must keep:
// every valid entry describes its pass's prefix of the product's current
// series.
func requireEntriesMatchSeries(t *testing.T, label string, st *EvalState, d *dataset.Dataset) {
	t.Helper()
	for i := range st.prods {
		for ep, ent := range st.prods[i].memo {
			if n := len(passPrefix(d.Products[i].Ratings, ep, d.HorizonDays)); ent.valid && ent.n != n {
				t.Fatalf("%s: product %d pass %d entry covers %d ratings, its prefix holds %d", label, i, ep, ent.n, n)
			}
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
	d := testDataset(t, 41, 5, 300)
	img := coldImage(t, e, d)
	dec, err := decodeImage(img)
	if err != nil || !dec.decided {
		t.Fatalf("a cold state's image: decided %v, %v", dec != nil && dec.decided, err)
	}
	dec.decided = false
	signalsOnly := withSeries(dec).encode()
	for _, tc := range []struct {
		name  string
		img   []byte
		exact bool
		want  Stats
	}{
		{"decided", img, true, Stats{MemoHits: 5, Restored: 5}},
		// Every product has ratings in each of the 10 epochs: 11 passes,
		// each deciding with both signal parts reused.
		{"signals-only", signalsOnly, false, Stats{Analyzed: 5 * 11, SignalHits: 2 * 5 * 11, MemoMisses: 5 * 11, Restored: 5}},
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
// cold; and every Resume equals a cold evaluation. One case restores a
// CRC-valid image whose final entry for product 1 claims 40 ratings more
// than its N columns, into data where product 1 has gained 40 tail
// ratings since: the entry's signals describe the N ratings, not the
// series it now claims, so Restore must not keep it.
func TestImageRestoreStale(t *testing.T) {
	e := &Engine{Detect: detect.DefaultConfig(), Workers: 1}
	base := testDataset(t, 43, 4, 300)
	img := coldImage(t, e, base)
	edits := []struct {
		name     string
		edit     func(d *dataset.Dataset)
		restored int
		forge    func(*image) // an edit of the image, if any
	}{
		{"tail rating", func(d *dataset.Dataset) {
			s := d.Products[1].Ratings
			touch(d, d.Products[1].ID, dataset.Rating{Day: (s[len(s)-1].Day + d.HorizonDays) / 2, Value: 5, Rater: "tail"})
		}, 4, nil},
		{"mid-history rating", func(d *dataset.Dataset) {
			touch(d, d.Products[1].ID, dataset.Rating{Day: 100, Value: 0.5, Rater: "mid"})
		}, 3, nil},
		{"same length, one value changed", func(d *dataset.Dataset) {
			p := &d.Products[0]
			p.Ratings = append(dataset.Series(nil), p.Ratings...)
			j := len(p.Ratings) / 2
			p.Ratings[j].Value = 5 - p.Ratings[j].Value
		}, 3, nil},
		{"same length, one rater changed", func(d *dataset.Dataset) {
			p := &d.Products[2]
			p.Ratings = append(dataset.Series(nil), p.Ratings...)
			p.Ratings[3].Rater = "someone-else"
		}, 3, nil},
		{"every product shorter", func(d *dataset.Dataset) {
			for i := range d.Products {
				p := &d.Products[i]
				p.Ratings = p.Ratings[:len(p.Ratings)-1]
			}
		}, 0, nil},
		{"a final entry claiming the tail", func(d *dataset.Dataset) {
			s := d.Products[1].Ratings
			for j, last := 0, s[len(s)-1].Day; j < 40; j++ {
				touch(d, d.Products[1].ID, dataset.Rating{Day: last + (d.HorizonDays-last)*float64(j+1)/41, Value: 0.5, Rater: fmt.Sprintf("tail-%d", j)})
			}
		}, 4, raiseFinal(1, 40)},
	}
	for _, tc := range edits {
		d := base.Clone()
		tc.edit(d)
		img := img
		if tc.forge != nil {
			img = recode(t, img, tc.forge)
		}
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

// raiseFinal returns an image edit that raises product i's final entry's
// recorded length by k, so the entry claims ratings past its N columns.
func raiseFinal(i int, k uint32) func(*image) {
	return func(img *image) {
		for j, ent := range img.prods[i].entries {
			if int(ent.epoch) == epoch.Periods(img.horizon) {
				img.prods[i].entries[j].n += k
			}
		}
	}
}

// TestImageRestoreCancelled restores under a cancelled context, at one
// worker and at two: Restore returns the context's error, restores nothing
// and leaves the state reset, so the Resume after it evaluates cold and
// equals a cold evaluation.
func TestImageRestoreCancelled(t *testing.T) {
	d := testDataset(t, 41, 5, 300)
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

// withSeries gives each product of a decoded image a source holding the
// series and the ordinal column its decoded columns hold, so the image
// encodes again.
func withSeries(img *image) *image {
	for i := range img.prods {
		p := &img.prods[i]
		p.src = &productState{series: make(dataset.Series, p.cols.Len()), ords: make([]uint32, p.cols.Len())}
		for j := range p.src.series {
			o, value, day := p.cols.At(j)
			p.src.series[j], p.src.ords[j] = dataset.Rating{Day: day, Value: value, Rater: img.raters.Name(o)}, o
		}
	}
	return img
}

// recode decodes img, applies edit to the decoded image and encodes it
// again, behind a valid header and checksum.
func recode(tb testing.TB, img []byte, edit func(*image)) []byte {
	tb.Helper()
	dec, err := decodeImage(img)
	if err != nil {
		tb.Fatal(err)
	}
	edit(withSeries(dec))
	return dec.encode()
}

// repeatName adds a second copy of the name of product 0's first rating to
// the dictionary and points that rating at it, so the rating still reads
// as its rater.
func repeatName(img *image) {
	ords, names := img.prods[0].src.ords, make([]string, img.raters.Len())
	for o := range names {
		names[o] = img.raters.Name(uint32(o))
	}
	img.raters, _ = trust.SymbolsOf(append(names, names[ords[0]]), false)
	ords[0] = uint32(len(names))
}

// ordinalPastDictionary points product 0's first rating at the ordinal
// one past the dictionary's last.
func ordinalPastDictionary(img *image) { img.prods[0].src.ords[0] = uint32(img.raters.Len()) }

// TestImageRefused checks that an image Restore must not use is an error
// that leaves the state untouched: another engine configuration, horizon
// or product list, a flipped byte, a truncation, trailing bytes, an
// unknown format version, a dictionary that names a rater twice or an
// ordinal the dictionary does not hold.
func TestImageRefused(t *testing.T) {
	e := &Engine{Detect: detect.DefaultConfig(), Workers: 1}
	d := testDataset(t, 47, 3, 120)
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
		{"a name twice in the dictionary", e, d, recode(t, img, repeatName)},
		{"an ordinal past the dictionary", e, d, recode(t, img, ordinalPastDictionary)},
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
// real images: of the fuzz dataset, of an edited copy, and cut short; the
// pinned version-4 image, whole and with its decisions section cut short;
// three the dictionary and columns must refuse: a name twice in the
// dictionary, an ordinal equal to its size, and the image of the fuzz
// dataset with one rating's value bit flipped, whose signals and
// decisions describe other data than the columns of every other rating
// say; and one whose final entry Restore must drop: the image of the fuzz
// dataset with p0 cut before day 40, whose final entry for p0 claims the
// ratings cut as well.
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
	f.Add(recode(f, img, repeatName))
	f.Add(recode(f, img, ordinalPastDictionary))
	flipped := base.Clone()
	s := flipped.Products[1].Ratings.Clone()
	j := slices.IndexFunc(s, func(r dataset.Rating) bool { return r.Value >= 2 && r.Value < 4 })
	s[j].Value = math.Float64frombits(math.Float64bits(s[j].Value) ^ 1<<51) // 2 <-> 3, 2.5 <-> 3.5
	flipped.Products[1].Ratings = s
	f.Add(coldImage(f, eng, flipped))
	cut := base.Clone()
	_, end := cut.Products[0].Ratings.BetweenIndex(0, 40)
	cut.Products[0].Ratings = cut.Products[0].Ratings[:end]
	f.Add(recode(f, coldImage(f, eng, cut), raiseFinal(0, uint32(len(base.Products[0].Ratings)-end))))
	edited := base.Clone()
	edited.Products[1].Ratings = edited.Products[1].Ratings.Insert(dataset.Rating{Day: 20, Value: 1, Rater: "x"})
	if _, err := eng.Resume(context.Background(), st, edited); err != nil {
		f.Fatal(err)
	}
	f.Add(st.Image(context.Background()))
	pinned := readTestdata(f, "engine-v4.img")
	f.Add(pinned[imageHeaderSize:])
	f.Add(pinned[imageHeaderSize : len(pinned)-100])

	f.Fuzz(func(t *testing.T, data []byte) {
		d := base.Clone()
		st := NewState()
		if _, _, err := eng.Restore(context.Background(), st, d, data); err == nil {
			requireEqualResults(t, "accepted image", mustResume(t, eng, st, d), reference(t, d))
			if img, _ := decodeImage(data); !bytes.Equal(withSeries(img).encode(), data) {
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

// TestFingerprintCoversEveryField changes each field of the engine key in
// turn, found by reflection (a float to its next value, an integer by
// one, a bool to its negation): every change must change the
// fingerprint, right after the base key was hashed and cached and again
// after the changed key was, and the pool width must not. A zero's sign
// does not count, as it does not for the key's own comparison.
func TestFingerprintCoversEveryField(t *testing.T) {
	base := Engine{Detect: detect.DefaultConfig()}
	want := fingerprint(base)
	w := base
	w.Workers = 8
	if fingerprint(w.key()) != want {
		t.Fatal("the pool width changed the fingerprint")
	}
	var leaves [][]int
	var walk func(typ reflect.Type, at []int)
	walk = func(typ reflect.Type, at []int) {
		for i := 0; i < typ.NumField(); i++ {
			idx := append(slices.Clip(at), i)
			if f := typ.Field(i); f.Type.Kind() == reflect.Struct {
				walk(f.Type, idx)
			} else if f.Name != "Workers" {
				leaves = append(leaves, idx)
			}
		}
	}
	walk(reflect.TypeOf(base), nil)
	for _, idx := range leaves {
		e := base
		f := reflect.ValueOf(&e).Elem().FieldByIndex(idx)
		switch f.Kind() {
		case reflect.Float64:
			f.SetFloat(math.Nextafter(f.Float(), math.Inf(1)))
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		default:
			t.Fatalf("field %v: no change defined for kind %v", idx, f.Kind())
		}
		name := reflect.TypeOf(base).FieldByIndex(idx).Name
		if fingerprint(base) != want || fingerprint(e) == want || fingerprint(e) == want || fingerprint(base) != want {
			t.Fatalf("changing %s left the fingerprint unchanged", name)
		}
	}
	if len(leaves) < 20 {
		t.Fatalf("found %d key fields, want every detector field and both ablation flags", len(leaves))
	}
	zero, negZero := base, base
	zero.Detect.ARCRelDelta, negZero.Detect.ARCRelDelta = 0, math.Copysign(0, -1)
	if fingerprint(zero) == want || fingerprint(negZero) != fingerprint(zero) {
		t.Fatal("a zero's sign changed the fingerprint, or a zero left it unchanged")
	}
}

// readTestdata returns the contents of testdata/name.
func readTestdata(tb testing.TB, name string) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// pinnedDataset returns testdata/dataset.json, the ratings the pinned
// images were taken from.
func pinnedDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	d, err := dataset.ReadJSON(bytes.NewReader(readTestdata(t, "dataset.json")))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestImagePinnedFormat pins the on-disk format. testdata/engine-v4.img is
// the image a cold Resume of testdata/dataset.json left, recorded by an
// earlier build of the encoder. The current code must decode that image,
// restore every product from it exactly, and re-encode the restored state
// byte for byte, before and after the Resume it leaves, so images already
// on disk stay valid. testdata/engine.img, engine-v2.img and engine-v3.img
// are the same evaluation's images in format versions 1 to 3: each must
// be refused by name, leaving the state untouched.
func TestImagePinnedFormat(t *testing.T) {
	img, d := readTestdata(t, "engine-v4.img"), pinnedDataset(t)
	e := &Engine{Detect: detect.DefaultConfig(), Workers: 2}
	st := NewState()
	for v, name := range []string{"engine.img", "engine-v2.img", "engine-v3.img"} {
		want := fmt.Sprintf("format version %d, want 4", v+1)
		if _, _, err := e.Restore(context.Background(), st, d, readTestdata(t, name)); err == nil || !strings.HasSuffix(err.Error(), want) {
			t.Fatalf("Restore of %s: %v, want %s", name, err, want)
		}
		if st.CompletedEpochs() != 0 || st.prods != nil {
			t.Fatalf("a refused %s changed the state", name)
		}
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
	dec, err := decodeImage(img)
	if err != nil {
		t.Fatal(err)
	}
	if again := withSeries(dec).encode(); !bytes.Equal(again, img) {
		t.Fatalf("the decoded image re-encodes %d bytes, not the pinned %d", len(again), len(img))
	}
}

// TestImagePinnedRatings reads testdata/engine-v4.img by the format text
// (image.go's layout comment, DESIGN.md §7), with a loop of its own and
// not the codec in internal/wal: the header and checksum, the fingerprint
// and horizon, the dictionary, and per product its ID, N and its ordinal,
// value and day columns. They must
// reproduce testdata/dataset.json: its horizon, its products in order,
// each with N its rating count and, rating by rating, the Day bits, the
// Value bits and, through the dictionary, the rater. No name may appear in
// the dictionary twice.
func TestImagePinnedRatings(t *testing.T) {
	b, d := readTestdata(t, "engine-v4.img"), pinnedDataset(t)
	le := binary.LittleEndian
	if len(b) < 12 || string(b[:4]) != "RENG" || le.Uint32(b[4:]) != 4 || le.Uint32(b[8:]) != crc32.ChecksumIEEE(b[12:]) {
		t.Fatalf("the header is not a checked version-4 engine image header")
	}
	b = b[12:]
	next := func(n int) []byte {
		if n > len(b) {
			t.Fatalf("the payload ends %d bytes early", n-len(b))
		}
		p := b[:n]
		b = b[n:]
		return p
	}
	u32 := func() int { return int(le.Uint32(next(4))) }
	next(32) // the engine-key fingerprint
	if h := le.Uint64(next(8)); h != math.Float64bits(d.HorizonDays) {
		t.Fatalf("horizon bits %#x, want %v", h, d.HorizonDays)
	}
	lens := make([]int, u32())
	for k := range lens {
		lens[k] = u32()
	}
	names := make([]string, len(lens))
	seen := map[string]bool{}
	for k, n := range lens {
		if names[k] = string(next(n)); seen[names[k]] {
			t.Fatalf("rater %q is in the dictionary twice", names[k])
		}
		seen[names[k]] = true
	}
	if n := u32(); n != len(d.Products) {
		t.Fatalf("%d products, want %d", n, len(d.Products))
	}
	for _, p := range d.Products {
		if id := string(next(u32())); id != p.ID {
			t.Fatalf("product %q, want %q", id, p.ID)
		}
		n := u32()
		if n != len(p.Ratings) {
			t.Fatalf("%s: %d ratings, want %d", p.ID, n, len(p.Ratings))
		}
		ords, vals, days := next(4*n), next(8*n), next(8*n)
		for j, r := range p.Ratings {
			day, val, o := le.Uint64(days[8*j:]), le.Uint64(vals[8*j:]), int(le.Uint32(ords[4*j:]))
			if day != math.Float64bits(r.Day) || val != math.Float64bits(r.Value) || o >= len(names) || names[o] != r.Rater {
				t.Fatalf("%s rating %d: day bits %#x, value bits %#x, ordinal %d of %d; want %+v", p.ID, j, day, val, o, len(names), r)
			}
		}
	}
}
