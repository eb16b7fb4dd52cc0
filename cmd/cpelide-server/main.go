// Command cpelide-server runs the experiment-farm HTTP server
// (internal/server): standalone by default, or as one worker in a cluster
// when pointed at a cpelide-coordinator. In worker mode it registers itself
// on startup, serves health checks at /healthz, and deregisters on shutdown.
//
// The farm is the worker's only job table: -cache bounds how many finished
// reports it remembers, and an ID it has forgotten answers 404. With -store,
// results are also persisted to a content-addressed on-disk store under the
// in-memory LRU; every lookup falls through to it, so a restarted worker (or
// a fresh one pointed at a shared directory) serves prior results from disk
// without re-simulating.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/diskstore"
	"repro/internal/farm"
	"repro/internal/metrics"
	"repro/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		debugAddr = flag.String("debug-addr", "", "optional debug listen address serving net/http/pprof (e.g. localhost:6060); empty disables")
		workers   = flag.Int("workers", 0, "farm worker goroutines (0 = all CPUs)")
		queueCap  = flag.Int("queue", 64, "jobs waiting for a farm worker before submissions are shed with 429")
		cacheCap  = flag.Int("cache", farm.DefaultCacheEntries, "finished reports held in memory (<= 0 uses the default)")
		jobTO     = flag.Duration("job-timeout", 0, "deadline for one simulation (0 = none)")
		logJSON   = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")

		storeDir    = flag.String("store", "", "persistent result-store directory (empty disables; share it between workers for a cluster-wide store)")
		coordinator = flag.String("coordinator", "", "coordinator base URL to register with (empty = standalone)")
		advertise   = flag.String("advertise", "", "base URL workers advertise to the coordinator (default http://localhost<addr>)")
		nodeName    = flag.String("node", "", "worker name for routing and metrics (default worker<addr>)")
		weight      = flag.Int("weight", 1, "Maglev capacity weight relative to other workers")
	)
	flag.Parse()

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler).With("component", "cpelide-server")

	reg := metrics.NewRegistry()
	opts := farm.Options{
		Workers:      *workers,
		CacheEntries: *cacheCap,
		JobTimeout:   *jobTO,
		Metrics:      reg,
	}

	if *storeDir != "" {
		store, err := diskstore.Open(*storeDir)
		if err != nil {
			logger.Error("open result store", "dir", *storeDir, "err", err)
			os.Exit(1)
		}
		corrupt := reg.Counter("store_corrupt_total",
			"Store entries that failed integrity validation and were quarantined.")
		store.OnCorrupt = func(key string) {
			corrupt.Inc()
			logger.Warn("store entry quarantined", "key", key)
		}
		opts.Store = store
	}

	eng := farm.New(opts)
	s := server.New(eng, *queueCap)
	s.Instrument(reg, logger)
	httpSrv := server.NewHTTPServer(*addr, s.Handler())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "workers", eng.Workers(), "queue", *queueCap)

	// Worker mode: announce ourselves to the coordinator once the listener
	// is up; a failed registration is fatal because unregistered workers
	// never receive traffic.
	if *coordinator != "" {
		worker := cluster.Worker{
			Name:   *nodeName,
			URL:    *advertise,
			Weight: *weight,
		}
		if worker.URL == "" {
			worker.URL = guessAdvertiseURL(*addr)
		}
		if worker.Name == "" {
			worker.Name = "worker" + *addr
		}
		regCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
		err := cluster.RegisterWorker(regCtx, nil, *coordinator, worker)
		cancel()
		if err != nil {
			logger.Error("register with coordinator", "coordinator", *coordinator, "err", err)
			os.Exit(1)
		}
		logger.Info("registered", "coordinator", *coordinator,
			"node", worker.Name, "url", worker.URL, "weight", worker.Weight)
		defer func() {
			deregCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := cluster.DeregisterWorker(deregCtx, nil, *coordinator, worker.Name); err != nil {
				logger.Warn("deregister", "err", err)
			}
		}()
	}

	var debugSrv *http.Server
	if *debugAddr != "" {
		// The profiling surface is a separate listener so it can stay bound
		// to localhost while the API listens publicly.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv = server.NewHTTPServer(*debugAddr, dmux)
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "addr", *debugAddr, "err", err)
			}
		}()
		logger.Info("pprof listening", "addr", *debugAddr)
	}

	select {
	case err := <-errc:
		logger.Error("listener failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting connections, let accepted jobs finish,
	// then stop the farm workers.
	logger.Info("signal received, draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("http shutdown", "err", err)
	}
	if debugSrv != nil {
		_ = debugSrv.Shutdown(shutdownCtx)
	}
	s.Drain()
	eng.Close()
	c := eng.Counters()
	logger.Info("drained", "jobs", c.Jobs, "runs", c.Runs, "cache_hits", c.CacheHits,
		"store_hits", c.StoreHits, "errors", c.Errors)
}

// guessAdvertiseURL turns a listen address into a base URL other processes
// on the same host can reach; multi-host deployments must pass -advertise.
func guessAdvertiseURL(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "http://" + addr
	}
	if host == "" || host == "0.0.0.0" || host == "::" {
		host = "localhost"
	}
	return fmt.Sprintf("http://%s:%s", host, port)
}
