// Command dedupfarm-router fronts a fleet of dedupfarmd worker nodes:
// it registers nodes, probes their health over the nodes' own /livez
// and /readyz endpoints, and routes every submitted job to a worker by
// consistent-hashing the job's structural circuit hash × variant — so
// jobs for the same design land where that design's Program is already
// compiled (and lane batches actually fill), with bounded-load spill to
// the next ring node when a design runs hot.
//
// Usage:
//
//	dedupfarm-router -addr :8080
//	dedupfarmd -addr :8081 -join http://localhost:8080
//	dedupfarmd -addr :8082 -join http://localhost:8080
//
//	curl -X POST localhost:8080/jobs -d '{"design":"Rocket-2C","scale":0.25,"cycles":2000}'
//	curl localhost:8080/jobs/fj-1
//	curl localhost:8080/nodes
//	curl localhost:8080/statusz
//	curl localhost:8080/metrics
//	curl localhost:8080/jobs/fj-1/trace > trace.json   # open in Perfetto
//
// Logs are structured (log/slog); -log-format json switches to JSON
// lines. -pprof-addr serves net/http/pprof on a separate listener.
//
// Failure semantics: while a node is alive the router continuously
// pulls its newest job checkpoints and compile artifacts. When a node
// misses -dead-after consecutive probes it is declared dead, taken off
// the ring, and its unfinished jobs are re-submitted to their next ring
// successor with the saved checkpoint attached — work resumes mid-run
// instead of restarting, and the new owner warms its compile cache from
// the router's replicated artifact store instead of recompiling.
//
// With -data-dir the router itself is durable: node registrations and
// every placement are journaled, replicated checkpoints and artifacts
// are persisted, and a restarted router replays the journal, re-adopts
// still-live nodes, and migrates the jobs of any node that died while
// it was down. With -router-id and one or more -peer flags, two or
// more routers front the same node set: each pulls the others'
// placement deltas so any router can serve any job, and orphan
// migration is owned by the lowest live router ID so a dead node's
// jobs are never migrated twice.
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
	"strings"
	"syscall"
	"time"

	"dedupsim/internal/cluster"
	"dedupsim/internal/durable"
	"dedupsim/internal/obs"
	"dedupsim/internal/tenant"
)

// peerList collects repeatable -peer flags.
type peerList []string

func (p *peerList) String() string { return strings.Join(*p, ",") }

func (p *peerList) Set(v string) error {
	if v == "" {
		return errors.New("empty peer URL")
	}
	*p = append(*p, v)
	return nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	heartbeat := flag.Duration("heartbeat", 0, "node probe period (0 = default 1s)")
	deadAfter := flag.Int("dead-after", 0, "consecutive missed probes before a node is dead and its jobs migrate (0 = default 3)")
	probeTimeout := flag.Duration("probe-timeout", 0, "per-probe HTTP timeout (0 = default 2s)")
	maxJobs := flag.Int("max-jobs", 0, "non-terminal fleet jobs admitted before shedding with 429 (0 = default 4096)")
	logFormat := flag.String("log-format", "text", "log output format: text (key=value lines) or json")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (e.g. localhost:6061; empty = off)")
	dataDir := flag.String("data-dir", "", "durable data directory: journal node registrations and placements, persist replicated checkpoints and artifacts, and recover all of it on restart (empty = in-memory only)")
	fsync := flag.String("fsync", "", "placement journal fsync policy with -data-dir: always, interval, none (default interval)")
	fsyncInterval := flag.Duration("fsync-interval", 0, "group-commit period for -fsync interval (0 = default 100ms)")
	routerID := flag.String("router-id", "", "this router's ID in a multi-router deployment; prefixes fleet job IDs and feeds migration ownership (empty = single router)")
	tenantCfg := flag.String("tenant-config", "", "per-tenant QoS config file (JSON) enforced at the fleet front door; reloaded live on SIGHUP (empty = every tenant unlimited)")
	var peers peerList
	flag.Var(&peers, "peer", "peer router base URL (repeatable) for HA placement sync")
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dedupfarm-router:", err)
		os.Exit(1)
	}
	logger = logger.With("node_id", "router")

	if *pprofAddr != "" {
		ps, err := obs.StartPprof(*pprofAddr)
		if err != nil {
			logger.Error("pprof listener failed", "err", err)
			os.Exit(1)
		}
		defer ps.Close()
		logger.Info("pprof serving", "addr", ps.Addr)
	}

	policy, err := durable.ParsePolicy(*fsync)
	if err != nil {
		logger.Error("bad -fsync", "err", err)
		os.Exit(1)
	}
	tenants, err := openTenants(*tenantCfg, logger)
	if err != nil {
		logger.Error("bad -tenant-config", "path", *tenantCfg, "err", err)
		os.Exit(1)
	}
	r, err := cluster.OpenRouter(cluster.RouterConfig{
		HeartbeatEvery: *heartbeat,
		DeadAfter:      *deadAfter,
		ProbeTimeout:   *probeTimeout,
		MaxJobs:        *maxJobs,
		DataDir:        *dataDir,
		Fsync:          policy,
		FsyncInterval:  *fsyncInterval,
		RouterID:       *routerID,
		Peers:          peers,
		Tenants:        tenants,
		Logf: func(format string, args ...any) {
			logger.Info(fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		logger.Error("router open failed", "err", err)
		os.Exit(1)
	}
	if rec := r.RecoveryStats(); rec != nil {
		logger.Info("router recovered",
			"placements_replayed", rec.PlacementsReplayed,
			"jobs_recovered", rec.JobsRecovered,
			"nodes_readopted", rec.NodesReadopted,
			"nodes_lost_while_down", rec.NodesLostWhileDown,
			"artifacts_reloaded", rec.ArtifactsReloaded,
			"journal_bytes_dropped", rec.JournalBytesDropped,
			"recovery_millis", rec.RecoveryMillis)
	}

	srv := &http.Server{Addr: *addr, Handler: cluster.Handler(r)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	logger.Info("listening", "addr", *addr)
	exit := 0
	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("server failed", "err", err)
			exit = 1
		}
	case <-ctx.Done():
		stop()
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		srv.Shutdown(sctx)
		scancel()
	}
	r.Close()
	fmt.Println("dedupfarm-router: final status")
	r.WriteStatus(os.Stdout)
	os.Exit(exit)
}

// openTenants loads the fleet QoS registry from -tenant-config and arms
// SIGHUP live reload; a failed reload keeps the previous limits.
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
