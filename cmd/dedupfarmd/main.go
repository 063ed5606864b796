// Command dedupfarmd serves the simulation farm over HTTP: submit
// simulation jobs, poll their status, fetch stats and waveforms, and
// inspect the content-addressed compile cache that lets identical designs
// share one compiled Program across the whole farm.
//
// Usage:
//
//	dedupfarmd -addr :8080 -workers 8
//
//	curl -X POST localhost:8080/jobs -d '{"design":"Rocket-2C","scale":0.25,"cycles":2000}'
//	curl localhost:8080/jobs/job-1
//	curl localhost:8080/stats
//	curl localhost:8080/statusz
//	curl localhost:8080/cache
//	curl localhost:8080/metrics
//	curl localhost:8080/jobs/job-1/trace > trace.json   # open in Perfetto
//
// Logs are structured (log/slog), tagged with this node's identity;
// -log-format json switches from key=value lines to JSON for shippers.
// -pprof-addr serves net/http/pprof on a separate listener (off by
// default — profiling endpoints never share the job-traffic port).
//
// On SIGINT/SIGTERM the daemon drains gracefully: admission closes
// (/readyz flips to 503, new submissions are refused), queued and
// running jobs finish within -drain-timeout, then the server exits. It
// exits non-zero only if the drain deadline expired with jobs still
// outstanding (those are canceled) or the server failed.
//
// With -data-dir the daemon is durable: job lifecycle is journaled,
// checkpoints and compile artifacts persist, and a restart — even
// after SIGKILL — replays the journal, re-admits unfinished jobs
// (resuming from their newest valid checkpoint), and decodes the
// persisted artifacts into warm cache entries before taking traffic.
// A damaged artifact is dropped; its design compiles on first use.
// -fsync trades journal safety against write amplification (always /
// interval / none).
//
// For chaos testing, -fault-inject arms deterministic fault injection,
// e.g. -fault-inject 'worker.crash=0.01,compile.stall=0.1' (see
// internal/faultinject for the points).
//
// As a fleet member (see cmd/dedupfarm-router):
//
//	dedupfarmd -addr :8081 -join http://router:8080
//
// -join registers this node with the router (retrying until it answers)
// under -node-id (default hostname:port) at -advertise-addr (default
// derived from -addr), and arms the fetch-by-hash artifact hook so a
// cold cache warms from the fleet instead of recompiling. A duplicate
// -node-id is rejected by the router at registration with a clear error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dedupsim/internal/cluster"
	"dedupsim/internal/farm"
	"dedupsim/internal/faultinject"
	"dedupsim/internal/obs"
	"dedupsim/internal/tenant"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "queued-job limit; past it submissions get 429 (0 = default 1024)")
	maxCycles := flag.Int("max-cycles", 0, "per-job cycle budget cap (0 = default 1e6)")
	timeout := flag.Duration("timeout", 0, "default per-job wall-clock timeout (0 = 2m)")
	retain := flag.Int("retain-jobs", 0, "terminal jobs kept queryable before pruning (0 = default 1024, negative = unlimited)")
	maxLanes := flag.Int("max-lanes", 0, "coalesce same-design queued jobs into lane batches up to this width (0 or 1 = off, max 64)")
	ckptEvery := flag.Int("checkpoint-every", 4096, "checkpoint running simulations every N cycles so retries resume instead of restarting (0 = off)")
	retries := flag.Int("retries", 0, "max retries per transiently failed job (0 = default 1, negative = off)")
	backoff := flag.Duration("retry-backoff", 100*time.Millisecond, "base retry backoff, doubled per attempt with jitter (0 = immediate)")
	stuck := flag.Duration("stuck-timeout", 0, "preempt and retry jobs that report no progress for this long (0 = watchdog off)")
	dataDir := flag.String("data-dir", "", "durable data directory: journal job lifecycle, persist checkpoints and compile artifacts, and recover all of it on restart (empty = in-memory only)")
	fsync := flag.String("fsync", "", "journal fsync policy with -data-dir: always, interval, none (default interval)")
	fsyncInterval := flag.Duration("fsync-interval", 0, "group-commit period for -fsync interval (0 = default 100ms)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight jobs before canceling them")
	faultSpec := flag.String("fault-inject", "", "arm fault injection: 'point=rate,...' over "+faultPoints())
	faultSeed := flag.Uint64("fault-seed", 1, "fault-injection decision seed")
	faultStall := flag.Duration("fault-stall", 0, "duration of injected stalls (0 = default 50ms)")
	faultBudget := flag.Int64("fault-budget", 0, "max fires per injection point (0 = unlimited)")
	join := flag.String("join", "", "fleet router base URL to register with (e.g. http://router:8080); empty = standalone")
	nodeID := flag.String("node-id", "", "fleet identity for this node (default hostname:port from -addr); must be unique per fleet")
	advertise := flag.String("advertise-addr", "", "base URL peers and the router reach this node at (default derived from -addr and the hostname)")
	logFormat := flag.String("log-format", "text", "log output format: text (key=value lines) or json")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (e.g. localhost:6060; empty = off)")
	tenantCfg := flag.String("tenant-config", "", "per-tenant QoS config file (JSON: default limits plus a tenants map of weight/rate_per_sec/burst/priority/parks_per_min); reloaded live on SIGHUP (empty = every tenant unlimited, weight 1)")
	flag.Parse()

	if *nodeID == "" {
		*nodeID = cluster.DefaultNodeID(*addr)
	}
	if *advertise == "" {
		*advertise = cluster.DefaultAdvertiseAddr(*addr)
	}

	logger, err := obs.NewLogger(os.Stderr, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dedupfarmd:", err)
		os.Exit(1)
	}
	logger = logger.With("node_id", *nodeID)

	faults, err := faultinject.Parse(*faultSpec, *faultSeed, *faultStall, *faultBudget)
	if err != nil {
		logger.Error("bad -fault-inject", "err", err)
		os.Exit(1)
	}
	if faults != nil {
		logger.Warn("fault injection armed", "spec", faults.String())
	}

	tenants, err := openTenants(*tenantCfg, logger)
	if err != nil {
		logger.Error("bad -tenant-config", "path", *tenantCfg, "err", err)
		os.Exit(1)
	}

	if *pprofAddr != "" {
		ps, err := obs.StartPprof(*pprofAddr)
		if err != nil {
			logger.Error("pprof listener failed", "err", err)
			os.Exit(1)
		}
		defer ps.Close()
		logger.Info("pprof serving", "addr", ps.Addr)
	}

	// Fleet mode: cold compiles consult the router's replicated artifact
	// store before compiling locally.
	var fetchArtifact func(ctx context.Context, hash, variant string) ([]byte, error)
	if *join != "" {
		fetchArtifact = cluster.RouterArtifactFetcher(nil, *join)
	}

	// Open (not New) so a broken data dir — unwritable path, journal from
	// an incompatible version — fails fast at startup with a clear error
	// instead of surfacing mid-run.
	f, err := farm.Open(farm.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		MaxCycles:       *maxCycles,
		DefaultTimeout:  *timeout,
		RetainJobs:      *retain,
		MaxLanes:        *maxLanes,
		CheckpointEvery: *ckptEvery,
		MaxRetries:      *retries,
		RetryBackoff:    *backoff,
		StuckTimeout:    *stuck,
		Faults:          faults,
		FetchArtifact:   fetchArtifact,
		DataDir:         *dataDir,
		Fsync:           *fsync,
		FsyncInterval:   *fsyncInterval,
		Tenants:         tenants,
	})
	if err != nil {
		logger.Error("farm startup failed", "err", err)
		os.Exit(1)
	}
	if rec := f.RecoveryStats(); rec != nil {
		logger.Info("recovered durable state",
			"data_dir", *dataDir,
			"journal_records", rec.JournalRecordsReplayed,
			"jobs_readmitted", rec.JobsRecovered,
			"checkpoints_loaded", rec.CheckpointsLoaded,
			"checkpoints_corrupt", rec.CheckpointsCorruptDropped,
			"cache_entries_warmed", rec.WarmEntries,
			"recovery_ms", rec.RecoveryMillis)
		if rec.JournalBytesDropped > 0 {
			logger.Warn("journal tail truncated", "torn_bytes", rec.JournalBytesDropped)
		}
	}

	srv := &http.Server{
		Addr:    *addr,
		Handler: farm.Handler(f),
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *join != "" {
		// Register after the listener is up so the router's first probe
		// finds a live /livez. Registration retries until the router
		// answers; a duplicate -node-id is a permanent, fatal error.
		jctx, jcancel := context.WithTimeout(ctx, 2*time.Minute)
		err := cluster.JoinRouter(jctx, nil, *join, *nodeID, *advertise)
		jcancel()
		if err != nil {
			logger.Error("fleet join failed", "router", *join, "err", err)
			f.Close()
			os.Exit(1)
		}
		logger.Info("joined fleet", "router", *join, "advertise", *advertise)
	}

	logger.Info("listening", "addr", *addr)
	exit := 0
	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("server failed", "err", err)
			exit = 1
		}
	case <-ctx.Done():
		// Let a second signal kill the process the default way while we
		// drain.
		stop()
		logger.Info("signal received; draining", "drain_timeout", *drainTimeout)
		// The server keeps answering status polls during the drain;
		// Submit refuses with 503 and /readyz reports unready so load
		// balancers stop routing here.
		dctx, dcancel := context.WithTimeout(context.Background(), *drainTimeout)
		if err := f.Drain(dctx); err != nil {
			logger.Error("drain incomplete; canceling remaining jobs", "err", err)
			exit = 1
		}
		dcancel()
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		srv.Shutdown(sctx)
		scancel()
	}
	f.Close()
	fmt.Println("dedupfarmd: final stats")
	f.WriteStats(os.Stdout)
	os.Exit(exit)
}

// openTenants loads the QoS registry from -tenant-config and arms the
// SIGHUP live-reload loop: a reload that fails to parse keeps the
// previous limits (a bad config push must not strip quotas), and
// existing tenants keep their counters and fair-share clock positions
// across reloads.
func openTenants(path string, logger *slog.Logger) (*tenant.Registry, error) {
	if path == "" {
		return tenant.NewRegistry(tenant.Config{}), nil
	}
	cfg, err := tenant.LoadFile(path)
	if err != nil {
		return nil, err
	}
	reg := tenant.NewRegistry(cfg)
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			cfg, err := tenant.LoadFile(path)
			if err != nil {
				logger.Error("tenant config reload failed; keeping previous limits", "path", path, "err", err)
				continue
			}
			reg.SetConfig(cfg)
			logger.Info("tenant config reloaded", "path", path)
		}
	}()
	return reg, nil
}

func faultPoints() string {
	s := ""
	for i, p := range faultinject.Points() {
		if i > 0 {
			s += ", "
		}
		s += string(p)
	}
	return s
}
