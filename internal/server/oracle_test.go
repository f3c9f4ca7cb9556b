package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/epoch"
	"repro/internal/faultfs"
	"repro/internal/reference"
	"repro/internal/stats"
	"repro/internal/wal"
)

// The service oracle. A seeded program of steps runs against a durable
// P-scheme Service over a fault-injecting filesystem, and after every step
// everything the service serves must equal reference.Evaluate over the
// ratings the model says were accepted, bit for bit. The model is a plain
// dataset: a submit is accepted iff it is valid and the product has no
// rating by the rater yet, and every accepted rating survives a clean
// Close, a process kill and (with SyncEvery 1, where every ack is durable)
// a power loss. The same check drives an engine-level arm: one sticky
// EvalState resumed over the model's ratings with random products'
// series recopied (a new header, the same content, so their memo entries
// drop), which the store never hands out.

// op is the kind of a program step.
type op uint8

const (
	// opHistory submits a history of 40–90 ratings in day order, leaving
	// one epoch empty a third of the time.
	opHistory op = iota
	// opSubmits submits 1–6 ratings, each in order (after the product's
	// last rating), out of order, on the day of an existing rating (with
	// its value half the time), by a duplicate rater or invalid.
	opSubmits
	// opAttack submits a burst of low or high ratings on one product.
	opAttack
	// opCancelledRead reads under a context that cancels itself after a
	// few checks.
	opCancelledRead
	// opCheckpoint snapshots and compacts every shard.
	opCheckpoint
	// opLoad replaces the ratings with an edit of them: values changed,
	// raters swapped, ratings removed.
	opLoad
	// opClose, opKill and opPowerLoss end the service by a clean Close, a
	// process kill (faultfs Clone) or a power loss (faultfs CrashImage),
	// keep, delete or corrupt the engine image, and reopen (restart).
	opClose
	opKill
	opPowerLoss
)

var opNames = [...]string{"opHistory", "opSubmits", "opAttack", "opCancelledRead", "opCheckpoint", "opLoad", "opClose", "opKill", "opPowerLoss"}

// step is one program step: its kind, and the seed of every choice it
// makes, drawn when it runs against the model's state, so a program
// replays exactly.
type step struct {
	Op   op
	Seed uint64
}

// program is a replayable oracle run: the shard count, the snapshot
// interval (0: only Checkpoint compacts) and the steps.
type program struct {
	Shards, SnapshotEvery int
	Steps                 []step
}

// String prints p as a Go literal that runProgram replays.
func (p program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program{Shards: %d, SnapshotEvery: %d, Steps: []step{\n", p.Shards, p.SnapshotEvery)
	for _, s := range p.Steps {
		fmt.Fprintf(&b, "\t{%s, %d},\n", opNames[s.Op], s.Seed)
	}
	b.WriteString("}}")
	return b.String()
}

// genProgram draws the program of a seed: a history, then 6–20 steps.
func genProgram(seed uint64) program {
	rng := stats.NewRNG(seed)
	p := program{Shards: 1 + rng.IntN(4), SnapshotEvery: rng.IntN(3) * (8 + rng.IntN(40)), Steps: []step{{opHistory, rng.Uint64()}}}
	weights := [...]int{opSubmits: 8, opAttack: 2, opCancelledRead: 2, opCheckpoint: 1, opLoad: 1, opClose: 2, opKill: 1, opPowerLoss: 1}
	for n := 6 + rng.IntN(15); n > 0; n-- {
		k := rng.IntN(18)
		o := opSubmits
		for ; k >= weights[o]; o++ {
			k -= weights[o]
		}
		p.Steps = append(p.Steps, step{o, rng.Uint64()})
	}
	return p
}

// oracle is one program's run: the service under test and the model.
type oracle struct {
	prog    program
	fs      *faultfs.FS
	svc     *Service
	variant int // detector configuration, see imageScheme
	// model holds the accepted ratings in the order the store keeps them,
	// each change a new series header.
	model *dataset.Dataset
	ref   *reference.Result // of model under variant; nil after a change
	// img is the ratings engine.img was written from, under imgVariant
	// (nil: no usable image), restore the number of products the first
	// evaluation after the last open must restore (-1: checked), and exact
	// whether it must restore the image's decisions too: the image
	// describes the model exactly, so that evaluation analyzes nothing.
	img                 *dataset.Dataset
	imgVariant, restore int
	exact               bool
	eng                 *engine.EvalState // the engine-level arm
	// prev holds the served and the engine-arm result of the last check,
	// and prevRef their reference, which equalled both bit for bit and
	// shares no memory with them: no later step may write a row or a
	// checkpoint a Result handed out.
	prev    [2]*engine.Result
	prevRef *reference.Result
	teeth   *oracleTeeth
}

// oracleTeeth counts what the runs exercised, so the test can tell when
// its generator stops reaching a path.
type oracleTeeth struct {
	restored, exact, inexact, marked, recopied, cancelled, cancelledRestores int
}

// runProgram runs p and returns the index of the first step whose check
// failed, with the failure, or -1 and nil.
func runProgram(p program, teeth *oracleTeeth) (int, error) {
	o := &oracle{prog: p, fs: faultfs.New(), restore: -1, eng: engine.NewState(), teeth: teeth}
	o.model = &dataset.Dataset{HorizonDays: imageHorizon}
	for _, id := range imageProducts {
		o.model.Products = append(o.model.Products, dataset.Product{ID: id})
	}
	if err := o.open(o.fs); err != nil {
		return 0, err
	}
	defer func() { o.svc.Close() }()
	if err := o.check(stats.NewRNG(0)); err != nil {
		return 0, fmt.Errorf("after the first open: %w", err)
	}
	for i, s := range p.Steps {
		rng := stats.NewRNG(s.Seed)
		if err := o.apply(s.Op, rng); err != nil {
			return i, fmt.Errorf("step %d %s: %w", i, opNames[s.Op], err)
		}
		if err := o.check(rng); err != nil {
			return i, fmt.Errorf("after step %d %s: %w", i, opNames[s.Op], err)
		}
	}
	return -1, nil
}

// open opens the service over fsys and checks that recovery applied
// every accepted rating, and nothing else.
func (o *oracle) open(fsys *faultfs.FS) error {
	svc, rep, err := OpenWAL(imageScheme(o.variant), imageHorizon, imageProducts,
		WALOptions{FS: fsys, Shards: o.prog.Shards, SyncEvery: 1, SnapshotEvery: o.prog.SnapshotEvery})
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	o.fs, o.svc = fsys, svc
	accepted := 0
	for _, p := range o.model.Products {
		accepted += len(p.Ratings)
	}
	if rep.SnapshotRatings+rep.ReplayedRatings != accepted || rep.SkippedRecords+rep.DuplicateRecords != 0 || svc.Shards() != o.prog.Shards {
		return fmt.Errorf("recovery %+v over %d shards; the model accepted %d ratings into %d", *rep, svc.Shards(), accepted, o.prog.Shards)
	}
	return nil
}

// submit submits one rating and requires the service to accept it iff the
// model does, with a durable ack, or to reject it with the model's error.
func (o *oracle) submit(product, rater string, value, day float64) error {
	want := o.verdict(product, rater, value, day)
	ack, err := o.svc.SubmitAck(context.Background(), product, rater, value, day)
	if !errors.Is(categorize(err), want) || (err == nil) != (want == nil) || err == nil && ack != wal.AckDurable {
		return fmt.Errorf("submit(%q, %q, %v, %v) = %v (ack %v), the model says %v, durably", product, rater, value, day, err, ack, want)
	}
	if err != nil {
		return nil
	}
	p, _ := o.model.Product(product)
	p.Ratings = p.Ratings.Insert(dataset.Rating{Day: day, Value: value, Rater: rater})
	o.ref = nil
	return nil
}

// verdict is the model's answer to a submit, in the store's order of
// checks: nil, ErrBadRating, ErrUnknownProduct or ErrDuplicateRating.
func (o *oracle) verdict(product, rater string, value, day float64) error {
	if math.IsNaN(value) || value < dataset.MinValue || value > dataset.MaxValue || rater == "" {
		return ErrBadRating
	}
	p, err := o.model.Product(product)
	switch {
	case err != nil:
		return ErrUnknownProduct
	case day < 0 || day >= imageHorizon:
		return ErrBadRating
	case slices.ContainsFunc(p.Ratings, func(r dataset.Rating) bool { return r.Rater == rater }):
		return ErrDuplicateRating
	}
	return nil
}

// halfStar draws a rating value on the half-star grid.
func halfStar(rng *rand.Rand) float64 { return float64(rng.IntN(11)) / 2 }

func (o *oracle) apply(kind op, rng *rand.Rand) error {
	ctx := context.Background()
	product := imageProducts[rng.IntN(len(imageProducts))]
	switch kind {
	case opHistory:
		empty := -1
		if rng.IntN(3) == 0 {
			empty = rng.IntN(int(imageHorizon / 30))
		}
		days := make([]float64, 40+rng.IntN(50))
		for i := range days {
			for days[i] = rng.Float64() * imageHorizon; int(days[i]/30) == empty; {
				days[i] = rng.Float64() * imageHorizon
			}
		}
		slices.Sort(days)
		for _, day := range days {
			p := imageProducts[rng.IntN(len(imageProducts))]
			v := dataset.QuantizeHalfStar(stats.Clamp(3.5+rng.NormFloat64(), 0, 5))
			if err := o.submit(p, fmt.Sprintf("r%d", rng.IntN(40)), v, day); err != nil {
				return err
			}
		}
	case opSubmits:
		for n := 1 + rng.IntN(6); n > 0; n-- {
			product = imageProducts[rng.IntN(len(imageProducts))]
			p, _ := o.model.Product(product)
			rater, value, day := fmt.Sprintf("r%d", rng.IntN(40)), halfStar(rng), rng.Float64()*imageHorizon
			switch k := rng.IntN(10); {
			case k < 4: // in order
				if n := len(p.Ratings); n > 0 {
					last := p.Ratings[n-1].Day
					day = last + rng.Float64()*(imageHorizon-last)
				}
			case k < 6: // out of order: day as drawn
			case k < 7: // on the day of an existing rating, maybe its value
				if len(p.Ratings) > 0 {
					at := p.Ratings[rng.IntN(len(p.Ratings))]
					day = at.Day
					if rng.IntN(2) == 0 {
						value = at.Value
					}
				}
			case k < 8: // a rater the product already has
				if len(p.Ratings) > 0 {
					rater = p.Ratings[rng.IntN(len(p.Ratings))].Rater
				}
			default: // invalid
				switch rng.IntN(5) {
				case 0:
					value = 9
				case 1:
					value = math.NaN()
				case 2:
					day = imageHorizon
				case 3:
					rater = ""
				default:
					product = "unknown"
				}
			}
			if err := o.submit(product, rater, value, day); err != nil {
				return err
			}
		}
	case opAttack:
		value := 0.5
		if rng.IntN(2) == 0 {
			value = 5
		}
		start := rng.Float64() * (imageHorizon - 12)
		for n := 6 + rng.IntN(10); n > 0; n-- {
			if err := o.submit(product, fmt.Sprintf("x%d", rng.IntN(25)), value, start+rng.Float64()*10); err != nil {
				return err
			}
		}
	case opCancelledRead:
		return o.cancelledRead(rng.IntN(24), product)
	case opCheckpoint:
		if err := o.svc.Checkpoint(ctx); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	case opLoad:
		d := o.model.Clone()
		for i := range d.Products {
			p := &d.Products[i]
			var s dataset.Series
			for _, r := range p.Ratings {
				switch rng.IntN(16) {
				case 0:
					continue // removed
				case 1:
					r.Value = halfStar(rng)
				case 2: // same day and value, another rater
					r.Rater = fmt.Sprintf("l%d", rng.Uint64())
				}
				s = append(s, r)
			}
			p.Ratings = s
		}
		if err := o.svc.Load(ctx, d); err != nil {
			return fmt.Errorf("load: %w", err)
		}
		o.model, o.ref = d, nil
	default:
		return o.restart(kind, rng, product)
	}
	return nil
}

// cancelledRead reads product's scores under a context that cancels after
// budget checks: the read fails with context.Canceled or serves the
// model's scores.
func (o *oracle) cancelledRead(budget int, product string) error {
	o.teeth.cancelled++
	scores, err := o.svc.Scores(newStepCtx(budget), product)
	if err != nil {
		if !errors.Is(err, context.Canceled) {
			return fmt.Errorf("cancelled read: %w", err)
		}
		return nil
	}
	return reference.DiffScores(scores, o.reference().Table[product])
}

// restart ends the service as kind says, keeps, deletes or corrupts the
// engine image, sometimes switches the detector configuration, and
// reopens; a quarter of the reopens take a rating after the last one of
// each product before the first read, and a third start with a cancelled
// read, which may cancel the image's Restore.
func (o *oracle) restart(kind op, rng *rand.Rand, product string) error {
	next := o.fs
	switch kind {
	case opClose:
		if err := o.svc.Close(); err != nil {
			return fmt.Errorf("close: %w", err)
		}
		// Every step ended in a read, so the service evaluated exactly
		// the model's ratings, and Close left an image of them.
		o.img, o.imgVariant = o.model.Clone(), o.variant
	case opKill:
		next = o.fs.Clone()
		o.svc.Close()
	default:
		next = o.fs.CrashImage()
		o.svc.Close()
	}
	switch rng.IntN(4) {
	case 2:
		next.Remove(engineImage)
		o.img = nil
	case 3:
		if data, err := next.ReadFile(engineImage); err == nil && len(data) > 0 {
			data[rng.IntN(len(data))] ^= byte(1 + rng.IntN(255))
			next.WriteFile(engineImage, data)
		}
		o.img = nil
	}
	if rng.IntN(6) == 0 {
		o.variant = 1 - o.variant
		o.ref = nil
	}
	if err := o.open(next); err != nil {
		return err
	}
	if rng.IntN(4) == 0 {
		for _, id := range imageProducts {
			p, _ := o.model.Product(id)
			day := rng.Float64() * imageHorizon
			if n := len(p.Ratings); n > 0 {
				day = p.Ratings[n-1].Day + rng.Float64()*(imageHorizon-p.Ratings[n-1].Day)
			}
			if err := o.submit(id, fmt.Sprintf("t%d", rng.IntN(40)), halfStar(rng), day); err != nil {
				return err
			}
		}
	}
	// The first evaluation must restore exactly the products whose ratings
	// start with the ratings the image was written from, under its
	// configuration, and the image's decisions when every product's
	// ratings are those ratings. Every image is of a complete evaluation:
	// Close follows a step's reads.
	o.restore, o.exact = 0, o.img != nil && o.imgVariant == o.variant
	for i, p := range o.model.Products {
		if o.img != nil && o.imgVariant == o.variant {
			old := o.img.Products[i].Ratings
			if len(old) <= len(p.Ratings) && slices.Equal(old, p.Ratings[:len(old)]) {
				o.restore++
			}
			o.exact = o.exact && len(old) == len(p.Ratings) && slices.Equal(old, p.Ratings)
		}
	}
	if o.restore == len(imageProducts) && !o.exact {
		o.teeth.inexact++
	}
	if rng.IntN(3) == 0 {
		// A budget this small often runs out inside the image's Restore.
		err := o.cancelledRead(rng.IntN(6), product)
		o.svc.mu.RLock()
		if !o.svc.imgRead {
			o.teeth.cancelledRestores++
		}
		o.svc.mu.RUnlock()
		return err
	}
	return nil
}

func (o *oracle) reference() *reference.Result {
	if o.ref == nil {
		o.ref = reference.Evaluate(o.model, imageScheme(o.variant).Detect)
	}
	return o.ref
}

// check compares the service and the engine-level arm with the reference:
// the stored ratings; every product's scores and report and every rater's
// trust, read in a random order so each read is sometimes the one that
// recomputes; the served result's table, marks, trust and Published; after
// an open, the products restored from the engine image, and after an exact
// restore that the evaluation ran no analysis and every final pass was a
// memo hit. Then the previous check's results must still equal their
// reference.
func (o *oracle) check(rng *rand.Rand) error {
	ctx := context.Background()
	ref := o.reference()
	view := o.svc.dataView()
	for i, p := range o.model.Products {
		if got := view.Products[i]; got.ID != p.ID || !slices.Equal(got.Ratings, p.Ratings) {
			return fmt.Errorf("the store holds %d ratings of %s, the model %d, or they differ", len(got.Ratings), p.ID, len(p.Ratings))
		}
	}
	reads := []func() error{
		func() error {
			for _, id := range imageProducts {
				scores, err := o.svc.Scores(ctx, id)
				if err != nil {
					return err
				}
				if err := reference.DiffScores(scores, ref.Table[id]); err != nil {
					return fmt.Errorf("scores of %s: %w", id, err)
				}
			}
			return nil
		},
		func() error {
			for i, id := range imageProducts {
				rep, err := o.svc.Inspect(ctx, id)
				if err != nil {
					return err
				}
				n := countTrue(ref.Suspicious[id])
				if rep.Ratings != len(o.model.Products[i].Ratings) || rep.Suspicious != n || rep.Stale {
					return fmt.Errorf("report of %s: %d ratings, %d marked, stale %v; want %d and %d", id, rep.Ratings, rep.Suspicious, rep.Stale, len(o.model.Products[i].Ratings), n)
				}
				if err := reference.DiffScores(rep.Scores, ref.Table[id]); err != nil {
					return fmt.Errorf("report of %s: %w", id, err)
				}
				if n > 0 {
					o.teeth.marked++
				}
			}
			return nil
		},
		func() error {
			for rater, want := range ref.Trust {
				if got := o.svc.Trust(ctx, rater); math.Float64bits(got) != math.Float64bits(want) {
					return fmt.Errorf("trust(%s) = %v, want %v", rater, got, want)
				}
			}
			return nil
		},
	}
	for _, k := range rng.Perm(len(reads)) {
		if err := reads[k](); err != nil {
			return err
		}
	}
	if err := ref.Diff(o.svc.served()); err != nil {
		return fmt.Errorf("served result: %w", err)
	}
	if o.restore >= 0 {
		st := o.svc.engState.Stats()
		if st.Restored != uint64(o.restore) {
			return fmt.Errorf("the first evaluation after the open restored %d products from the engine image, want %d", st.Restored, o.restore)
		}
		if o.restore > 0 {
			o.teeth.restored++
		}
		if o.exact {
			if st.Analyzed+st.SignalHits+st.SignalMisses+st.MemoMisses != 0 || st.MemoHits < uint64(len(imageProducts)) {
				return fmt.Errorf("the evaluations after an exact restore analyzed or missed the memo: %+v", st)
			}
			o.teeth.exact++
		}
		o.restore = -1
	}

	// The engine-level arm: a Resume of the sticky state over the model's
	// ratings, some products' series recopied, sometimes after a
	// cancelled one or a Reset.
	d := &dataset.Dataset{HorizonDays: o.model.HorizonDays, Products: slices.Clone(o.model.Products)}
	for i := range d.Products {
		if rng.IntN(3) == 0 {
			d.Products[i].Ratings = d.Products[i].Ratings.Clone()
			o.teeth.recopied++
		}
	}
	eng := imageScheme(o.variant).Engine()
	eng.Workers = 1 + rng.IntN(3)
	switch rng.IntN(8) {
	case 0:
		o.eng.Reset()
	case 1, 2:
		if res, err := eng.Resume(newStepCtx(rng.IntN(30)), o.eng, d); err != nil && (res != nil || !errors.Is(err, context.Canceled)) {
			return fmt.Errorf("engine arm: a cancelled Resume returned %v and a result: %v", err, res != nil)
		}
	}
	res, err := eng.Resume(ctx, o.eng, d)
	if err != nil {
		return fmt.Errorf("engine arm: %w", err)
	}
	if err := ref.Diff(res); err != nil {
		return fmt.Errorf("engine arm: %w", err)
	}
	if got, want := o.eng.CompletedEpochs(), epoch.Periods(imageHorizon); got != want {
		return fmt.Errorf("engine arm: %d epochs checkpointed, want %d", got, want)
	}
	for k, prev := range o.prev {
		if prev == nil {
			break // the first check
		}
		if err := o.prevRef.Diff(prev); err != nil {
			return fmt.Errorf("the %s result of the previous check changed: %w", [...]string{"served", "engine arm"}[k], err)
		}
	}
	o.prev, o.prevRef = [2]*engine.Result{o.svc.served(), res}, ref
	return nil
}

// shrink cuts a program whose step failed at failed down to its failing
// prefix, then drops every earlier step whose removal keeps it failing.
func shrink(p program, failed int) program {
	p.Steps = p.Steps[:failed+1]
	for i := len(p.Steps) - 2; i >= 0; i-- {
		q := p
		q.Steps = slices.Delete(slices.Clone(p.Steps), i, i+1)
		if at, err := runProgram(q, &oracleTeeth{}); err != nil {
			q.Steps = q.Steps[:at+1]
			p, i = q, min(i, len(q.Steps)-1)
		}
	}
	return p
}

// TestServiceOracle runs one seeded program per seed (see the op
// constants for the steps) and requires every check to pass. On a
// failure it prints the shrunk program, which runProgram replays.
func TestServiceOracle(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 12
	}
	var teeth oracleTeeth
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		p := genProgram(seed)
		if at, err := runProgram(p, &teeth); err != nil {
			short := shrink(p, at)
			_, serr := runProgram(short, &oracleTeeth{})
			t.Fatalf("seed %d: %v\nshrunk to %d of %d steps (%v):\n%v", seed, err, len(short.Steps), len(p.Steps), serr, short)
		}
	}
	t.Logf("%+v", teeth)
	if teeth.restored == 0 || teeth.exact == 0 || teeth.inexact == 0 || teeth.marked == 0 || teeth.recopied == 0 || teeth.cancelled == 0 || teeth.cancelledRestores == 0 {
		t.Fatalf("the programs never reached a path (%+v); the oracle has lost its teeth", teeth)
	}
}
