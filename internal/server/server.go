// Package server wraps the reliable rating aggregation system in an online
// service: ratings are submitted as they happen, aggregates are recomputed
// lazily under a pluggable defense scheme, and the P-scheme's suspicious
// marks and rater trust are inspectable — the deployment shape a production
// rating system (the paper's motivating setting) would use.
//
// Storage is the sharded layer in internal/store: rating state is
// partitioned into product-keyed shards (each with its own mutex, dataset
// partition, and WAL stream), so ingest scales with cores instead of
// serializing on one lock and one fsync pipeline. This package is the
// coordinator above it: it routes writes to the store, owns every
// cross-product concern — the P-scheme recompute with its epoch-
// checkpointed engine state, the trust fold, the cached table, and the
// degradation state — and refreshes them from consistent multi-shard cuts
// (store.View) whenever the store's generation moved past the one the
// cached table covers. One shard (the default for New and OpenWAL) is
// just the smallest count: the WAL directory still holds a manifest and
// shard-000/.
//
// The service is optionally durable: constructed with Open it writes every
// accepted rating to a write-ahead log (internal/wal) before mutating
// in-memory state, periodically checkpoints the full dataset, and on boot
// replays snapshot + log — in parallel across shards — so rating history,
// and with it the P-scheme's beta trust in every rater, survives crashes.
// An attacker cannot reset their trust by crashing the service.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agg"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/wal"
)

// Errors returned by the rating service. They alias the storage layer's
// sentinels, so errors.Is works against either package.
var (
	// ErrUnknownProduct indicates a rating or query for an unregistered
	// product.
	ErrUnknownProduct = store.ErrUnknownProduct
	// ErrBadRating indicates an out-of-range or non-finite value or day.
	ErrBadRating = store.ErrBadRating
	// ErrDuplicateRating indicates a rater rating the same product twice
	// (the one-rating-per-rater-per-object rule of Eq. 7).
	ErrDuplicateRating = store.ErrDuplicateRating
	// ErrUnavailable indicates the durable log rejected the write; the
	// rating was NOT accepted and the client should retry after the
	// operator restores storage (HTTP 503).
	ErrUnavailable = store.ErrUnavailable
)

// RecoveryReport describes what a durable boot found on disk, merged
// across shards in shard order.
type RecoveryReport = store.RecoveryReport

// Service is a thread-safe online rating system. The zero value is not
// usable; construct with New/NewSharded (in-memory) or Open/OpenWAL
// (durable).
type Service struct {
	// mu guards the coordinator's cross-product state below. Rating state
	// lives in the store, which synchronizes itself — Submit never takes
	// this lock, so ingest proceeds while a recompute holds it.
	mu     sync.RWMutex
	scheme agg.Scheme
	// result is the served evaluation; under the P-scheme its rows and
	// Trust are engState's, read-only (engine.Result).
	result *engine.Result
	// engState holds the P-scheme engine's per-epoch trust checkpoints and
	// memo across recomputes, and counts the engine's work for /metrics.
	// It is created with the service and never replaced (unused by other
	// schemes); Load and a failed recompute Reset it, so the next attempt
	// starts cold while the counters keep growing. Each recompute hands it
	// a fresh combined dataset built from the shard cut; the engine
	// recognizes the identical product list + horizon, works out from the
	// series which epochs changed, and resumes from the checkpoints before
	// them (engine.Resume).
	engState *engine.EvalState
	// covered is the store generation (store.Generation) the cached table
	// was computed for, or was last attempted for when that attempt failed
	// outright; 0 before the first recompute, which the store never reports.
	covered uint64
	// imgRead is set once the first recompute after a durable open has
	// tried to restore engState from the engine image (engineImage);
	// imgGen is the store generation at which the image on disk held
	// exactly engState's signals tiers (0: none), so a Close at it writes
	// nothing.
	imgRead bool
	imgGen  uint64

	// Degradation: when a recompute panics, result holds the last good
	// evaluation, stale is set, and staleErr records the cause until a later
	// recompute succeeds.
	stale    bool
	staleErr error

	// store is the sharded storage layer (self-synchronized).
	store *store.Store
	// logger is atomic, not mu-guarded: the store logs through it while
	// holding shard locks, and taking mu there would invert the
	// coordinator-before-shard lock order.
	logger atomic.Pointer[log.Logger]

	// Observability (EnableMetrics): obsReg and evalSeconds are mu-guarded;
	// httpM is atomic because the middleware reads it without taking the
	// coordinator lock — a request must never queue behind a recompute just
	// to record its latency.
	obsReg      *obs.Registry
	evalSeconds *obs.Histogram
	httpM       atomic.Pointer[httpMetrics]
}

// New creates an in-memory (non-durable) single-shard service for the
// given products, aggregating with scheme over a horizon of horizonDays.
func New(scheme agg.Scheme, horizonDays float64, products []string) (*Service, error) {
	return NewSharded(scheme, horizonDays, products, 1)
}

// NewSharded is New with an explicit shard count: product state and lock
// striping are split across shards (0 and 1 both mean one shard).
func NewSharded(scheme agg.Scheme, horizonDays float64, products []string, shards int) (*Service, error) {
	if scheme == nil {
		return nil, errors.New("server: nil scheme")
	}
	st, err := store.New(horizonDays, products, shards)
	if err != nil {
		return nil, err
	}
	s := &Service{scheme: scheme, result: &engine.Result{}, store: st, engState: engine.NewState()}
	s.logger.Store(log.New(io.Discard, "", 0))
	st.SetLogf(s.logf)
	return s, nil
}

// WALOptions configures the durable variant of the service: the store's
// WAL directory, shard count, group-commit, fsync-breaker and snapshot
// policy.
type WALOptions = store.Options

// Open creates a durable single-shard service backed by a write-ahead log
// in walDir with strict durability defaults (fsync every append, snapshot
// every 4096 ratings). It replays any existing snapshot + log before
// returning, so the service resumes exactly where a crashed predecessor
// stopped.
func Open(scheme agg.Scheme, horizonDays float64, products []string, walDir string) (*Service, *RecoveryReport, error) {
	return OpenWAL(scheme, horizonDays, products, WALOptions{Dir: walDir, SnapshotEvery: 4096})
}

// OpenWAL is Open with explicit durability options, including the shard
// count. Recovery is parallel: every shard replays its own snapshot + log
// concurrently and the per-shard reports are merged in shard order.
func OpenWAL(scheme agg.Scheme, horizonDays float64, products []string, opts WALOptions) (*Service, *RecoveryReport, error) {
	if scheme == nil {
		return nil, nil, errors.New("server: nil scheme")
	}
	st, report, err := store.Open(horizonDays, products, opts)
	if err != nil {
		return nil, nil, err
	}
	s := &Service{scheme: scheme, result: &engine.Result{}, store: st, engState: engine.NewState()}
	s.logger.Store(log.New(io.Discard, "", 0))
	st.SetLogf(s.logf)
	return s, report, nil
}

// SetLogger directs the service's operational log (request middleware,
// degraded-mode recomputes, snapshot failures). The default discards.
func (s *Service) SetLogger(l *log.Logger) {
	if l == nil {
		l = log.New(io.Discard, "", 0)
	}
	s.logger.Store(l)
}

func (s *Service) logf(format string, args ...any) {
	s.logger.Load().Printf(format, args...)
}

// Load seeds the service with an existing dataset (e.g. history read from
// disk), replacing all current ratings. On a durable service the loaded
// dataset is immediately checkpointed — shard by shard — so it survives a
// crash.
func (s *Service) Load(ctx context.Context, d *dataset.Dataset) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.store.Load(ctx, d); err != nil {
		return err
	}
	s.engState.Reset() // drop checkpoints computed for the old history
	return nil
}

// Submit records one rating, durably if the service has a WAL. It is
// SubmitAck with the durability level discarded — callers that surface ack
// semantics to clients (the HTTP handler) use SubmitAck directly.
func (s *Service) Submit(ctx context.Context, product, rater string, value, day float64) error {
	_, err := s.SubmitAck(ctx, product, rater, value, day)
	return err
}

// SubmitAck records one rating, durably if the service has a WAL: the
// rating is appended to its product's shard WAL (and fsynced per that
// shard's group-commit policy) before any in-memory state changes, so an
// acknowledgement implies the rating will survive a crash and a storage
// failure surfaces as ErrUnavailable rather than a silent ack. The
// returned Ack qualifies the durability promise: AckDurable means the
// record is covered by a completed fsync (or by the group-commit policy's
// bounded window); AckPending means the shard's fsync circuit breaker is
// open — the record is written and will be group-committed by the
// breaker's probe, but a power loss before then may drop it. A cancelled
// ctx sheds the request before any WAL write. Submissions to different
// shards never contend: the coordinator lock is not taken here, so ingest
// continues while a recompute runs. The ground-truth Unfair flag of
// incoming ratings is ignored — a live system has no oracle.
func (s *Service) SubmitAck(ctx context.Context, product, rater string, value, day float64) (wal.Ack, error) {
	return s.store.Submit(ctx, product, rater, value, day)
}

// Checkpoint forces a snapshot + log compaction of every shard now. It is
// a no-op on a non-durable service. A ctx already cancelled when the
// store is reached skips the compaction (the logs keep growing until the
// next trigger).
func (s *Service) Checkpoint(ctx context.Context) error {
	return s.store.Checkpoint(ctx)
}

// engineImage is the file beside the WAL manifest that carries the
// P-scheme engine's signals tiers, and the decisions of a complete
// evaluation, across restarts: a cache, never a source of truth
// (engine.Restore).
const engineImage = "engine.img"

// Close flushes and closes every shard WAL (if any). The service rejects
// further durable submissions afterwards. A durable P-scheme service then
// writes its engine image, unless the one on disk holds exactly its state;
// a failed write is only logged: the next open evaluates cold.
func (s *Service) Close() error {
	var img []byte
	s.mu.Lock()
	_, pScheme := s.scheme.(*agg.PScheme)
	if gen := s.store.Generation(); pScheme && s.store.Durable() && gen != s.imgGen {
		s.imgGen, img = gen, s.engState.Image(context.Background())
	}
	s.mu.Unlock()
	err := s.store.Close()
	if img != nil {
		if werr := s.store.WriteFile(engineImage, img); werr != nil {
			s.logf("server: engine image not written, the next start evaluates cold: %v", werr)
		}
	}
	return err
}

// restoreImageLocked seeds engState from the engine image for the first
// evaluation of d, the cut at generation gen, and logs the outcome. A
// missing, unreadable, foreign or corrupt image means a cold evaluation.
// A restore that ctx cancelled is not an outcome: the next evaluation
// reads the image again. Callers must hold the write lock.
func (s *Service) restoreImageLocked(ctx context.Context, e *engine.Engine, d *dataset.Dataset, gen uint64) {
	data, ok, err := s.store.ReadFile(engineImage)
	k, exact := 0, false
	if err == nil && ok {
		k, exact, err = e.Restore(ctx, s.engState, d, data)
	}
	switch {
	case err != nil && ctx.Err() != nil:
		return
	case err != nil:
		s.logf("server: engine image ignored, evaluating cold: %v", err)
	case !ok:
		s.logf("server: engine image absent, evaluating cold")
	default:
		s.logf("server: engine image: restored %d of %d products, exact %t", k, len(d.Products), exact)
	}
	s.imgRead = true
	if exact {
		s.imgGen = gen
	}
}

// Ready reports whether the service is fully healthy: no shard WAL (if
// configured) has a sticky storage failure and the last aggregate
// recompute did not fail. Any departure from full health — including
// degraded-but-serving states — is an error here; the /readyz probe uses
// the finer-grained Health instead.
func (s *Service) Ready() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.store.WALErr(); err != nil {
		return fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	if s.stale && s.staleErr != nil {
		return fmt.Errorf("server: aggregates stale: %v", s.staleErr)
	}
	return nil
}

// Health statuses, in decreasing order of health. A degraded service keeps
// serving (load balancers should keep routing to it, operators should
// look at it); a not-ready service must be taken out of rotation.
const (
	StatusReady    = "ready"
	StatusDegraded = "degraded"
	StatusNotReady = "not-ready"
)

// Health is the structured readiness report behind /readyz.
type Health struct {
	// Status is StatusReady, StatusDegraded, or StatusNotReady.
	Status string `json:"status"`
	// Durability is the current Submit ack mode: "durable" under healthy
	// WALs, "pending" while any shard's fsync circuit breaker is open
	// (writes are logged and group-committed by the breaker's probe, but a
	// power loss may drop the tail), or "none" for an in-memory service.
	Durability string `json:"durability"`
	// Reasons lists why the service is not fully ready (empty when ready).
	Reasons []string `json:"reasons,omitempty"`
}

// Health classifies the service state for the /readyz probe:
//
//	not-ready — a shard WAL has a sticky failure; durable submissions on
//	            it are being rejected. Serve 503, pull from rotation.
//	degraded  — serving, but below full fidelity: the last recompute
//	            failed (aggregates stale) or an fsync breaker is open
//	            (acks pending). Serve 200 with the reasons as a warning.
//	ready     — full fidelity.
func (s *Service) Health() Health {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h := Health{Status: StatusReady, Durability: "none"}
	if s.store.Durable() {
		h.Durability = "durable"
		if err := s.store.WALErr(); err != nil {
			h.Status = StatusNotReady
			h.Reasons = append(h.Reasons, fmt.Sprintf("wal failed: %v", err))
			return h
		}
		if s.store.WALDegraded() {
			h.Status = StatusDegraded
			h.Durability = wal.AckPending.String()
			h.Reasons = append(h.Reasons, "fsync breaker open: submissions acknowledged durability=pending")
		}
	}
	if s.stale && s.staleErr != nil {
		h.Status = StatusDegraded
		h.Reasons = append(h.Reasons, fmt.Sprintf("aggregates stale: %v", s.staleErr))
	}
	return h
}

// Products returns the registered product IDs.
func (s *Service) Products() []string {
	return s.store.Products()
}

// RatingCount returns the number of ratings recorded for the product.
func (s *Service) RatingCount(product string) (int, error) {
	return s.store.RatingCount(product)
}

// Shards returns the storage shard count.
func (s *Service) Shards() int {
	return s.store.Shards()
}

// freshRLock returns holding the read lock with the aggregate cache
// refreshed if it was dirty. Readers therefore serve the newest table
// computed no later than their own start — when the cache is clean they
// proceed concurrently under RLock and never serialize on the write lock.
//
// On a non-nil error the read lock is NOT held: the caller's ctx was
// cancelled, either while queued for the lock or mid-recompute. The
// half-finished recompute's epoch checkpoints stay in engState and the
// covered generation is left behind the store's, so the cancelled work is
// resumed — not redone — by the next reader.
func (s *Service) freshRLock(ctx context.Context) error {
	s.mu.RLock()
	if s.store.Generation() == s.covered {
		return nil
	}
	s.mu.RUnlock()
	s.mu.Lock()
	err := s.refreshLocked(ctx)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	s.mu.RLock()
	return nil
}

// Scores returns the product's per-period aggregated ratings under the
// service's scheme, recomputing if ratings arrived since the last call.
func (s *Service) Scores(ctx context.Context, product string) ([]float64, error) {
	if err := s.freshRLock(ctx); err != nil {
		return nil, err
	}
	defer s.mu.RUnlock()
	if !s.store.Has(product) {
		return nil, fmt.Errorf("%w: %q", ErrUnknownProduct, product)
	}
	scores := s.result.Table[product]
	out := make([]float64, len(scores))
	copy(out, scores)
	return out, nil
}

// Report is the defense-side view of one product.
type Report struct {
	Product string    `json:"product"`
	Ratings int       `json:"ratings"`
	Scores  []float64 `json:"scores"`
	// Suspicious counts the ratings the P-scheme marked (0 and false for
	// other schemes).
	Suspicious    int  `json:"suspicious"`
	HasSuspicious bool `json:"hasSuspicious"`
	// Stale is set when the last aggregate recompute failed (the scheme
	// panicked) and Scores is the last successfully computed table —
	// degraded service rather than no service.
	Stale bool `json:"stale,omitempty"`
}

// Inspect returns the defense report for a product. Suspicious-mark data
// is only available when the service runs the P-scheme. The rating count
// is live (straight from the product's shard) even when Scores is stale.
func (s *Service) Inspect(ctx context.Context, product string) (Report, error) {
	if err := s.freshRLock(ctx); err != nil {
		return Report{}, err
	}
	defer s.mu.RUnlock()
	n, err := s.store.RatingCount(product)
	if err != nil {
		return Report{}, err
	}
	rep := Report{
		Product: product,
		Ratings: n,
		Scores:  append([]float64(nil), s.result.Table[product]...),
		Stale:   s.stale,
	}
	if s.result.Trust != nil {
		rep.HasSuspicious = true
		for _, m := range s.result.Suspicious[product] {
			if m {
				rep.Suspicious++
			}
		}
	}
	return rep, nil
}

// Trust returns the current trust in a rater (0.5 for unknown raters, and
// always 0.5 when the scheme is not the P-scheme). A cancelled ctx returns
// the neutral prior rather than an error — trust is advisory and the
// caller already chose not to wait — but the skipped refresh is logged
// like Scores/Inspect surface theirs, never swallowed. A recompute that
// fails outright (scheme panic) serves the prior trust from the last good
// evaluation, mirroring the stale-table degradation of Scores.
func (s *Service) Trust(ctx context.Context, rater string) float64 {
	if err := s.freshRLock(ctx); err != nil {
		s.logf("server: trust(%q): stale-cache refresh abandoned, serving neutral prior: %v", rater, err)
		return 0.5
	}
	defer s.mu.RUnlock()
	if s.result.Trust == nil {
		return 0.5
	}
	return s.result.Trust.Trust(rater)
}

// refreshLocked recomputes aggregates if ratings arrived. Callers must
// hold the write lock. It reads the store's generation, then takes a
// consistent cut over every shard (store.View); the cut holds at least
// every change the generation counts, so a successful recompute records
// that generation as covered. A panicking scheme does not take the service
// down: the previous table keeps being served, reports carry Stale, Ready
// fails, and the next submission triggers another attempt.
//
// A ctx cancellation mid-recompute returns the error without recording the
// generation and without marking the service stale: the engine checkpoints
// completed so far stay in engState, and the next caller with a live
// context resumes from where this one stopped.
func (s *Service) refreshLocked(ctx context.Context) error {
	gen := s.store.Generation()
	if gen == s.covered {
		return nil
	}
	evalStart := time.Now()
	res, err := s.evaluateLocked(ctx, s.store.View(), gen)
	s.evalSeconds.Observe(time.Since(evalStart).Seconds())
	if err != nil && ctx.Err() != nil {
		return err
	}
	s.covered = gen
	if err != nil {
		s.stale = true
		s.staleErr = err
		// The engine state may hold checkpoints from a half-finished
		// resume; reset it so the retry starts from a clean slate (the
		// cost of one cold evaluation, only on the failure path).
		s.engState.Reset()
		s.logf("server: aggregate recompute failed, serving stale table: %v", err)
		return nil
	}
	s.result = res
	s.stale = false
	s.staleErr = nil
	return nil
}

// evaluateLocked runs the scheme over the cut's combined dataset d, taken
// at generation gen, converting a panic into an error. Callers must hold
// the write lock. The first P-scheme evaluation after a durable open
// restores the engine image first (restoreImageLocked).
// Under the P-scheme it resumes the epoch-checkpointed engine: the cut's
// dataset is rebuilt from shard partitions each time, but it carries the
// same product list and horizon, so the engine keeps its state, finds the
// earliest rating that changed in the products whose series header moved
// (the store hands out an unchanged product's same header every cut), and
// reuses every epoch before it from the previous evaluation's checkpoints
// — steady-state recompute cost is proportional to the changed epoch
// suffix plus one final per-product pass, not the full history.
func (s *Service) evaluateLocked(ctx context.Context, d *dataset.Dataset, gen uint64) (res *engine.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("scheme %s panicked: %v", s.scheme.Name(), r)
		}
	}()
	if p, ok := s.scheme.(*agg.PScheme); ok {
		if !s.imgRead && s.store.Durable() {
			s.restoreImageLocked(ctx, p.Engine(), d, gen)
		}
		return p.Engine().Resume(ctx, s.engState, d)
	}
	return &engine.Result{Table: s.scheme.Aggregates(d)}, nil
}
