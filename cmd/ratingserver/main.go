// Command ratingserver runs the reliable rating aggregation system as an
// HTTP service: clients submit ratings and query per-month aggregates,
// defense reports and rater trust, all computed live under the chosen
// scheme.
//
// Usage:
//
//	ratingserver -addr :8080 -scheme P -products tv1,tv2,tv3 -horizon 150
//	curl -X POST localhost:8080/ratings -d '{"product":"tv1","rater":"alice","value":4.5,"day":3}'
//	curl localhost:8080/products/tv1/report
//
// With -wal-dir the server is durable: every accepted rating is written to
// a checksummed write-ahead log before it is acknowledged, the dataset is
// checkpointed every -snapshot-every ratings, and a restart replays
// snapshot + log so rating history and rater trust survive crashes.
// -sync-every trades durability for throughput via fsync group commit.
//
// State is partitioned into -shards product shards (default GOMAXPROCS),
// each with its own lock stripe and WAL segment: submissions to different
// products commit concurrently, and recovery replays all shards in
// parallel. At every count, -shards 1 included, the WAL directory holds
// wal-manifest.json and one shard-NNN/ subdirectory per shard; a reopen
// must use the recorded count. A directory in the single-stream layout of
// earlier builds (top-level wal.log or snapshot.json, no manifest) is
// refused: migrate it with an earlier build first.
//
// With -seed-history the server starts pre-loaded with synthetic fair
// rating history, which makes the defense meaningful from the first query.
//
// Under the P-scheme, aggregate recomputes run on the epoch-checkpointed
// incremental engine: a submit only re-evaluates the trust epochs from the
// rating's day forward, and each epoch analyzes its products in parallel.
// -workers bounds that parallelism (0 = GOMAXPROCS, 1 = serial); results
// are bit-identical at any width.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/agg"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/stats"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		scheme   = flag.String("scheme", "P", "aggregation scheme: SA|BF|P")
		products = flag.String("products", "tv1,tv2,tv3", "comma-separated product IDs")
		horizon  = flag.Float64("horizon", 150, "rating horizon in days")
		seedHist = flag.Bool("seed-history", false, "preload synthetic fair rating history")
		seed     = flag.Uint64("seed", 1, "seed for -seed-history")
		walDir   = flag.String("wal-dir", "", "write-ahead log directory (empty = in-memory, non-durable)")
		syncEv   = flag.Int("sync-every", 1, "fsync the WAL every N accepted ratings (group commit)")
		snapEv   = flag.Int("snapshot-every", 4096, "checkpoint the dataset and compact the WAL every N ratings (0 = never)")
		workers  = flag.Int("workers", 0, "P-scheme per-product analysis workers per recompute (0 = GOMAXPROCS, 1 = serial)")
		shards   = flag.Int("shards", 0, "product shards with independent locks and WAL segments (0 = GOMAXPROCS; recorded in the WAL manifest, a reopen must match)")

		maxInflight  = flag.Int("max-inflight", 256, "max concurrent requests before queueing (0 = unbounded)")
		queueDepth   = flag.Int("queue-depth", 512, "max requests waiting for an inflight slot before shedding 503")
		rateLimit    = flag.Float64("rate-limit", 0, "per-client sustained requests/second, 4x burst (0 = unlimited)")
		breakerMS    = flag.Int("fsync-breaker-ms", 250, "fsync latency that trips the WAL breaker into pending-durability acks (0 = never)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "max time to drain in-flight requests on shutdown")
		debugAddr    = flag.String("debug-addr", "", "optional second listener serving /metrics and /debug/pprof/* (empty = disabled; /metrics is always on the main listener)")
		logLevel     = flag.String("log-level", "info", "minimum log level: debug|info|warn|error")
	)
	flag.Parse()
	lvl, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ratingserver:", err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, lvl)
	if err := run(config{
		addr: *addr, scheme: *scheme, products: *products, horizon: *horizon,
		seedHist: *seedHist, seed: *seed,
		walDir: *walDir, syncEvery: *syncEv, snapshotEvery: *snapEv,
		workers: *workers, shards: *shards,
		maxInflight: *maxInflight, queueDepth: *queueDepth, rateLimit: *rateLimit,
		breakerMS: *breakerMS, drainTimeout: *drainTimeout,
		debugAddr: *debugAddr,
		logger:    logger, obsReg: obs.NewRegistry(),
	}); err != nil {
		logger.Error("ratingserver exiting", "err", err)
		os.Exit(1)
	}
}

type config struct {
	addr     string
	scheme   string
	products string
	horizon  float64
	seedHist bool
	seed     uint64

	walDir        string
	syncEvery     int
	snapshotEvery int

	workers int
	shards  int

	maxInflight  int
	queueDepth   int
	rateLimit    float64
	breakerMS    int
	drainTimeout time.Duration
	debugAddr    string

	// logger and obsReg are the observability plane, injected by main. Both
	// may be nil (tests): a nil registry disables metrics, and log() falls
	// back to a discarding logger.
	logger *obs.Logger
	obsReg *obs.Registry
}

// log returns the config's structured logger, never nil.
func (c config) log() *obs.Logger {
	if c.logger != nil {
		return c.logger
	}
	return obs.NewLogger(io.Discard, obs.LevelError)
}

// buildService assembles the rating service from the CLI parameters; split
// from run so tests can exercise it without binding a socket. The caller
// owns the returned service and must Close it (flushing the WAL).
func buildService(cfg config) (*server.Service, agg.Scheme, error) {
	var scheme agg.Scheme
	switch cfg.scheme {
	case "SA":
		scheme = agg.SAScheme{}
	case "BF":
		scheme = agg.NewBFScheme()
	case "P":
		p := agg.NewPScheme()
		p.Workers = cfg.workers
		scheme = p
	default:
		return nil, nil, fmt.Errorf("unknown scheme %q", cfg.scheme)
	}
	ids := strings.Split(cfg.products, ",")
	for i := range ids {
		ids[i] = strings.TrimSpace(ids[i])
	}
	shards := cfg.shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}

	var (
		svc       *server.Service
		recovered int
		err       error
	)
	if cfg.walDir != "" {
		var rep *server.RecoveryReport
		svc, rep, err = server.OpenWAL(scheme, cfg.horizon, ids, server.WALOptions{
			Dir:            cfg.walDir,
			Shards:         shards,
			SyncEvery:      cfg.syncEvery,
			SnapshotEvery:  cfg.snapshotEvery,
			StallThreshold: time.Duration(cfg.breakerMS) * time.Millisecond,
		})
		if err != nil {
			return nil, nil, err
		}
		recovered = rep.SnapshotRatings + rep.ReplayedRatings
		cfg.log().Info("recovered ratings from WAL",
			"ratings", recovered, "dir", cfg.walDir, "shards", shards,
			"snapshot", rep.SnapshotRatings, "replayed", rep.ReplayedRatings,
			"duplicate", rep.DuplicateRecords, "skipped", rep.SkippedRecords,
			"tornBytes", rep.TruncatedBytes)
		for _, reason := range rep.SkipReasons {
			cfg.log().Warn("recovery skipped record", "reason", reason)
		}
	} else {
		svc, err = server.NewSharded(scheme, cfg.horizon, ids, shards)
		if err != nil {
			return nil, nil, err
		}
	}
	// The service's operational log (request lines, recompute failures)
	// flows through the structured logger at info level; metrics register
	// before the handler is built so the /metrics route exists.
	svc.SetLogger(cfg.log().Std(obs.LevelInfo))
	svc.EnableMetrics(cfg.obsReg)

	// Seeding replaces all ratings, so never clobber recovered history.
	if cfg.seedHist && recovered > 0 {
		cfg.log().Warn("WAL holds ratings; ignoring -seed-history", "ratings", recovered)
	} else if cfg.seedHist {
		gcfg := dataset.DefaultFairConfig()
		gcfg.Products = len(ids)
		gcfg.HorizonDays = cfg.horizon
		d, err := dataset.GenerateFair(stats.NewRNG(cfg.seed), gcfg)
		if err != nil {
			svc.Close()
			return nil, nil, err
		}
		// GenerateFair names products tv1…tvN; remap onto the requested IDs.
		for i := range d.Products {
			d.Products[i].ID = ids[i]
		}
		if err := svc.Load(context.Background(), d); err != nil {
			svc.Close()
			return nil, nil, err
		}
		cfg.log().Info("seeded synthetic history", "products", len(ids))
	}
	return svc, scheme, nil
}

// buildHandler wraps the service handler with admission control per the
// CLI parameters. Health probes and /metrics are exempt: a saturated
// instance must keep answering /healthz and /readyz (or the balancer
// drains exactly the instances carrying the load) and must stay
// observable — the scrape that explains an overload cannot be a casualty
// of it.
func buildHandler(svc *server.Service, cfg config) http.Handler {
	opts := resilience.AdmissionOptions{
		ExemptPaths: map[string]bool{"/healthz": true, "/readyz": true, "/metrics": true},
	}
	if cfg.maxInflight > 0 {
		opts.Limiter = resilience.NewLimiter(cfg.maxInflight, cfg.queueDepth)
	}
	if cfg.rateLimit > 0 {
		opts.Rate = resilience.NewRateLimiter(cfg.rateLimit, cfg.rateLimit*4)
	}
	if opts.Limiter == nil && opts.Rate == nil {
		return svc.Handler()
	}
	opts.Metrics = resilience.NewAdmissionMetrics(cfg.obsReg, opts.Limiter, opts.Rate)
	return resilience.Admission(svc.Handler(), opts)
}

// buildDebugHandler serves the opt-in -debug-addr listener: the metrics
// registry plus net/http/pprof's profiling endpoints. The pprof handlers
// are registered explicitly on a private mux — importing net/http/pprof
// touches only http.DefaultServeMux, which this binary never serves.
func buildDebugHandler(reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func run(cfg config) error {
	svc, scheme, err := buildService(cfg)
	if err != nil {
		return err
	}
	ids := svc.Products()

	drain := cfg.drainTimeout
	if drain <= 0 {
		drain = 10 * time.Second
	}
	httpServer := &http.Server{
		Addr:              cfg.addr,
		Handler:           buildHandler(svc, cfg),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	// Graceful shutdown on SIGINT/SIGTERM: stop accepting, drain in-flight
	// requests up to -drain-timeout, then (below) flush and close the WAL.
	// Requests still running at the deadline have their contexts cancelled
	// by the server teardown, which sheds them through the same deadline
	// paths as a client disconnect.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		done <- httpServer.Shutdown(shutdownCtx)
	}()

	// The debug listener (pprof + metrics) is a second, private server: it
	// binds loopback in practice and skips admission control entirely, so a
	// stuck or saturated main listener never blocks a profile grab.
	var debugServer *http.Server
	if cfg.debugAddr != "" && cfg.obsReg != nil {
		debugServer = &http.Server{
			Addr:              cfg.debugAddr,
			Handler:           buildDebugHandler(cfg.obsReg),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			cfg.log().Info("debug listener serving /metrics and /debug/pprof/", "addr", cfg.debugAddr)
			if err := debugServer.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				cfg.log().Error("debug listener failed", "addr", cfg.debugAddr, "err", err)
			}
		}()
	}

	durability := "in-memory, no WAL"
	if cfg.walDir != "" {
		durability = fmt.Sprintf("WAL %s, sync-every %d, snapshot-every %d", cfg.walDir, cfg.syncEvery, cfg.snapshotEvery)
	}
	cfg.log().Info("serving rating aggregation",
		"scheme", scheme.Name(), "addr", cfg.addr, "products", len(ids),
		"shards", svc.Shards(), "horizonDays", cfg.horizon, "durability", durability)
	if err := httpServer.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		svc.Close()
		return err
	}
	shutdownErr := <-done
	if debugServer != nil {
		debugServer.Close()
	}
	// Flush and close the WAL only after in-flight requests drained, so an
	// orderly stop never loses acknowledged ratings.
	if err := svc.Close(); err != nil {
		cfg.log().Error("wal close failed", "err", err)
		if shutdownErr == nil {
			shutdownErr = err
		}
	}
	cfg.log().Info("shutdown complete")
	return shutdownErr
}
