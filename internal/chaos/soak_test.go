package chaos

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/dataset"
	"repro/internal/faultfs"
	"repro/internal/reference"
	"repro/internal/server"
	"repro/internal/wal"
)

// soakOptions is the CI smoke configuration: a few seconds of storm with
// every fault mode exercised. The schedule runs latency and fsync-stall
// phases early (while the storm is guaranteed dense), heals, and saves the
// disk-full window for last — ENOSPC poisons the WAL stickily, so any
// phase after it would be all failures.
func soakOptions() Options {
	return Options{
		Seed:     42,
		Products: []string{"tv1", "tv2", "tv3"},
		Horizon:  90,
		// Three shards over three products: the storm commits through
		// independent WAL segments and the audit walks three streams.
		// (TestChaosKillDuringDrain runs one shard, so the audit also
		// covers a single stream.)
		Shards:            3,
		Clients:           8,
		RequestsPerClient: 120,
		RequestTimeout:    2 * time.Second,
		Pacing:            30 * time.Millisecond,
		MaxInflight:       4,
		QueueDepth:        4,
		// One host serves all storm clients, so they share one rate
		// bucket: 50 rps sustained against a much hotter offered load
		// guarantees shed traffic without starving durable acks (burst
		// covers the healthy warm-up).
		RateLimit:      50,
		StallThreshold: 5 * time.Millisecond,
		ProbeInterval:  25 * time.Millisecond,
		Schedule: []Phase{
			{Name: "healthy", SpaceBudget: -1, Duration: 200 * time.Millisecond},
			{Name: "latency", Latency: time.Millisecond, SpaceBudget: -1, Duration: 250 * time.Millisecond},
			{Name: "fsync-stall", Stall: 25 * time.Millisecond, SpaceBudget: -1, Duration: 600 * time.Millisecond},
			{Name: "heal", SpaceBudget: -1, Duration: 400 * time.Millisecond},
			{Name: "disk-full", SpaceBudget: 0, Duration: 250 * time.Millisecond},
		},
	}
}

// TestChaosSoak runs the full storm and audits the three SLO invariants
// against a power-loss image taken at the end: no durable-acked rating
// lost, shed traffic fast-failed, and the service recovered from the image
// bit-exact with reference.Evaluate over the surviving ratings.
func TestChaosSoak(t *testing.T) {
	opts := soakOptions()
	h, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	rep := h.Storm()

	// Power loss: tear off every unsynced byte, then audit.
	image := h.FS.CrashImage()
	h.TS.Close()
	h.Svc.Close() // may return the sticky ENOSPC poison; the image is already taken

	// The storm must actually have exercised what the invariants claim to
	// cover, or the audit is vacuous.
	durable := rep.DurableAcked()
	if len(durable) == 0 {
		t.Fatal("storm produced no durable-acked submissions")
	}
	if !rep.BreakerTripped {
		t.Fatal("fsync-stall phase never tripped the breaker (no pending acks)")
	}
	if len(rep.ShedLatencies) == 0 {
		t.Fatal("storm produced no shed (429/503/timeout) traffic")
	}
	if rep.ReadsOK == 0 {
		t.Fatal("no read ever succeeded during the storm")
	}
	t.Logf("storm: %d submissions (%d durable, %d accepted), %d reads (%d ok), %d shed (p99 %v)",
		len(rep.Submissions), len(durable), len(rep.Accepted()), rep.Reads, rep.ReadsOK,
		len(rep.ShedLatencies), rep.ShedP99())

	// Timeouts surface as shed with latency ≈ RequestTimeout, so the p99
	// budget sits above the timeout: the bound catches unbounded blocking,
	// not the deliberate client deadline.
	if violations := Audit(rep, image, opts.RequestTimeout+time.Second); len(violations) != 0 {
		for _, v := range violations {
			t.Error(v)
		}
	}

	// Convergence: the recovered service serves the reference's scores
	// over exactly the ratings that survived.
	d, err := survivingDataset(image, opts)
	if err != nil {
		t.Fatalf("crash image unreadable: %v", err)
	}
	svc, _, err := server.OpenWAL(agg.NewPScheme(), opts.Horizon, opts.Products, server.WALOptions{FS: image.Clone(), Shards: opts.Shards})
	if err != nil {
		t.Fatalf("recovery from crash image: %v", err)
	}
	defer svc.Close()
	ref := reference.Evaluate(d, agg.NewPScheme().Detect)
	for _, id := range opts.Products {
		scores, err := svc.Scores(context.Background(), id)
		if err == nil {
			err = reference.DiffScores(scores, ref.Table[id])
		}
		if err != nil {
			t.Errorf("recovered scores(%s): %v", id, err)
		}
	}
}

// survivingDataset builds the dataset a recovery of the crash image
// holds: every record of a known product read through the WAL streams in
// replay order, a rater's first rating per product kept, as recovery
// keeps them.
func survivingDataset(image *faultfs.FS, opts Options) (*dataset.Dataset, error) {
	streams, err := shardStreams(image)
	if err != nil {
		return nil, err
	}
	d := &dataset.Dataset{HorizonDays: opts.Horizon}
	for _, id := range opts.Products {
		d.Products = append(d.Products, dataset.Product{ID: id})
	}
	seen := make(map[string]bool)
	for _, fsys := range streams {
		w, _, err := wal.Open(fsys, wal.Options{}, wal.ReplayFunc(func(r wal.Record, _ bool) {
			if k, i := key(r.Product, r.Rater), slices.Index(opts.Products, r.Product); i >= 0 && !seen[k] {
				seen[k] = true
				d.Products[i].Ratings = d.Products[i].Ratings.Insert(dataset.Rating{Day: r.Day, Value: r.Value, Rater: r.Rater})
			}
		}))
		if err != nil {
			return nil, err
		}
		w.Close()
	}
	return d, nil
}

// TestChaosKillDuringDrain crashes the box while Close is flushing
// breaker-pending records: a power-loss image taken concurrently with the
// drain must still hold every durable-acked rating, and the post-drain
// image must hold every acked rating (Close fsyncs the pending tail).
func TestChaosKillDuringDrain(t *testing.T) {
	opts := Options{
		Products:       []string{"tv1", "tv2"},
		Horizon:        90,
		StallThreshold: 2 * time.Millisecond,
		ProbeInterval:  time.Hour, // no background heal: pending stays pending until Close
	}
	h, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h.TS.Close()

	ctx := context.Background()
	day := 0.0
	durableAcked := make(map[string]bool)
	allAcked := make(map[string]bool)
	submit := func(rater string) wal.Ack {
		t.Helper()
		ack, err := h.Svc.SubmitAck(ctx, "tv1", rater, 4, day)
		if err != nil {
			t.Fatalf("submit %s: %v", rater, err)
		}
		day += 0.5
		allAcked[key("tv1", rater)] = true
		if ack == wal.AckDurable {
			durableAcked[key("tv1", rater)] = true
		}
		return ack
	}

	for i := 0; i < 30; i++ {
		submit(rater("d", i))
	}
	// Stall fsyncs past the breaker threshold: the first stalled submit
	// still acks durable (its fsync completed, slowly) and trips the
	// breaker; the rest ack pending with no fsync behind them.
	h.FS.StallSyncs(10 * time.Millisecond)
	var pending int
	for i := 0; i < 10; i++ {
		if submit(rater("p", i)) == wal.AckPending {
			pending++
		}
	}
	if pending == 0 {
		t.Fatal("stalled submits never acked pending; drain has nothing to flush")
	}
	h.FS.StallSyncs(0)

	// Kill during drain: snapshot the power-loss image while Close is
	// flushing the pending tail.
	closeErr := make(chan error, 1)
	go func() { closeErr <- h.Svc.Close() }()
	midDrain := h.FS.CrashImage()
	if err := <-closeErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	final := h.FS.CrashImage()

	// The mid-drain image may or may not hold the pending records — the
	// crash raced the flush — but durable acks are inviolable.
	midSurvivors, err := survivingRatings(midDrain)
	if err != nil {
		t.Fatalf("mid-drain image unreadable: %v", err)
	}
	for k := range durableAcked {
		if !midSurvivors[k] {
			t.Errorf("durable-acked rating %q lost in mid-drain crash", k)
		}
	}

	// After an orderly drain every ack — durable and pending — is on
	// stable storage.
	finalSurvivors, err := survivingRatings(final)
	if err != nil {
		t.Fatalf("post-drain image unreadable: %v", err)
	}
	for k := range allAcked {
		if !finalSurvivors[k] {
			t.Errorf("acked rating %q lost despite orderly drain", k)
		}
	}

	// And the drained image boots a working service with the full history.
	svc, rec, err := server.OpenWAL(agg.NewPScheme(), opts.Horizon, opts.Products, server.WALOptions{FS: final})
	if err != nil {
		t.Fatalf("recovery from drained image: %v", err)
	}
	defer svc.Close()
	if got := rec.SnapshotRatings + rec.ReplayedRatings; got != len(allAcked) {
		t.Errorf("recovered %d ratings, want %d", got, len(allAcked))
	}
	if _, err := svc.Scores(ctx, "tv1"); err != nil {
		t.Errorf("recovered service cannot serve scores: %v", err)
	}
}

func rater(prefix string, i int) string {
	return prefix + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

// TestAuditCatchesLoss pins that the auditor is not a rubber stamp: a
// fabricated durable ack that is absent from the image must be flagged.
func TestAuditCatchesLoss(t *testing.T) {
	opts := Options{
		Products: []string{"tv1"},
		Horizon:  90,
	}
	h, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, err := h.Svc.SubmitAck(context.Background(), "tv1", "real", 4, 1); err != nil {
		t.Fatal(err)
	}
	rep := &Report{Submissions: []Submission{
		{Product: "tv1", Rater: "real", Status: 201, Durability: "durable"},
		{Product: "tv1", Rater: "ghost", Status: 201, Durability: "durable"},
	}}
	violations := Audit(rep, h.FS.CrashImage(), time.Second)
	if len(violations) != 1 {
		t.Fatalf("violations = %v, want exactly the ghost rating", violations)
	}
}
