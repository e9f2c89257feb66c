// Command crskyd serves (probabilistic) reverse skyline queries,
// causality/responsibility explanations for non-answers, and minimal
// repairs over HTTP/JSON — the crsky library as a long-lived, concurrent,
// cache-backed service.
//
//	crskyd [-addr :8372] [-cache 1024] [-workers N] [-max-queue N]
//	       [-admin addr] [-slow-query dur] [-slow-query-log path]
//	       [-drain 10s] [-preload name=model=path ...]
//	       [-data-dir path] [-fsync=true]
//	crskyd fsck -data-dir path [-repair] [-json]
//
// Endpoints:
//
//	GET    /healthz               liveness
//	GET    /v1/stats              engine I/O, cache, pool metrics
//	POST   /v1/datasets           register a dataset (JSON or CSV payload)
//	GET    /v1/datasets           list datasets
//	GET    /v1/datasets/{name}    describe one dataset
//	DELETE /v1/datasets/{name}    drop a dataset
//	POST   /v1/query              (probabilistic) reverse skyline
//	POST   /v1/explain            causes + responsibilities for a non-answer
//	POST   /v1/repair             smallest removal set making an an answer
//	POST   /v2/query              batch query, NDJSON stream
//	POST   /v2/explain            batch explain, NDJSON stream
//
// Every /v1/* and /v2/* request is recorded into route × model × outcome
// latency histograms; append ?trace=1 to any compute request for a
// per-stage timing breakdown in the response.
//
// -admin exposes the operator surface on a SEPARATE listener (bind it to
// loopback): GET /metrics in the Prometheus text format plus the
// net/http/pprof profiling endpoints under /debug/pprof/.
//
// -slow-query enables the structured slow-query log: requests slower than
// the threshold are written as one JSON line each — route, dataset, model,
// outcome, duration, and the full stage trace — to -slow-query-log
// (default stderr).
//
// -preload registers CSV datasets at startup; model is "certain" or
// "sample" (the CSV formats of the crsky CLI).
//
// Overload never hangs clients: admission control in front of the worker
// pool sheds excess work early as 503s with a computed Retry-After
// (shedding batch traffic before explains before queries; override a
// request's class with the X-Crsky-Priority header), and -max-queue sets
// the queue budget. Every answer is exact: under overload a request is
// answered later or shed, never approximated.
//
// On SIGINT/SIGTERM the server stops accepting new compute work
// immediately (admission sheds with Retry-After) and drains in-flight
// requests for up to -drain before exiting; work still running at the
// deadline is canceled.
//
// -data-dir enables the durable dataset store: registrations commit to a
// write-ahead log before they are acknowledged, snapshots checkpoint each
// dataset, and startup recovery replays the WAL over the snapshots. Files
// failing their checksums are quarantined under corrupt/ and the daemon
// boots degraded on the healthy datasets (/healthz reports "degraded").
// -fsync (default on) makes every commit a durability barrier; turning it
// off trades crash durability for write latency. The fsck subcommand is the
// one offline store checker: it verifies a store, exits 1 on problems, and
// with -repair quarantines corrupt files, truncates a torn WAL tail,
// re-checkpoints, and compacts; -json writes the report as JSON.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/crsky/crsky/internal/server"
	"github.com/crsky/crsky/internal/store"
)

// preloadFlag collects repeated -preload name=model=path values.
type preloadFlag []string

func (p *preloadFlag) String() string     { return strings.Join(*p, ",") }
func (p *preloadFlag) Set(v string) error { *p = append(*p, v); return nil }

func main() {
	// Subcommands dispatch before flag parsing; plain `crskyd [flags]`
	// serves.
	if len(os.Args) > 1 && os.Args[1] == "fsck" {
		os.Exit(cmdFsck(os.Args[2:], os.Stdout, os.Stderr))
	}
	var (
		addr      = flag.String("addr", ":8372", "listen address")
		adminAddr = flag.String("admin", "", "admin listen address for /metrics and /debug/pprof (empty = disabled; bind to loopback)")
		cache     = flag.Int("cache", 1024, "result cache capacity in entries (negative disables)")
		workers   = flag.Int("workers", 0, "max concurrent computations; every computation holds one slot and runs on one core (0 = GOMAXPROCS)")
		maxBody   = flag.Int64("max-body", 64<<20, "request body size cap in bytes")
		maxQueue  = flag.Int("max-queue", 0, "admission-control queue budget in requests (0 = workers*8)")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown deadline for draining in-flight requests")
		slowQuery = flag.Duration("slow-query", 0, "slow-query log threshold (0 disables)")
		slowLog   = flag.String("slow-query-log", "", "slow-query log destination path (default stderr)")
		dataDir   = flag.String("data-dir", "", "durable dataset store directory (empty = in-memory only)")
		fsync     = flag.Bool("fsync", true, "fsync every WAL commit and snapshot (durability barrier)")
		preloads  preloadFlag
	)
	flag.Var(&preloads, "preload", "dataset to register at startup, as name=model=path (repeatable)")
	flag.Parse()

	var slowW io.Writer
	if *slowQuery > 0 {
		slowW = os.Stderr
		if *slowLog != "" {
			f, err := os.OpenFile(*slowLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				log.Fatalf("crskyd: open slow-query log: %v", err)
			}
			defer f.Close()
			slowW = f
		}
	}

	var st *store.Store
	if *dataDir != "" {
		var rep *store.RecoveryReport
		var err error
		st, rep, err = store.Open(*dataDir, store.Options{Fsync: *fsync})
		if err != nil {
			log.Fatalf("crskyd: open store %s: %v", *dataDir, err)
		}
		defer st.Close()
		log.Printf("crskyd: store %s: %d datasets recovered (%d snapshots, %d WAL records replayed)",
			*dataDir, len(rep.Datasets), rep.SnapshotsLoaded, rep.WALReplayed)
		if rep.WALTorn {
			log.Printf("crskyd: store: torn WAL tail truncated at offset %d", rep.WALTruncatedAt)
		}
		for _, q := range rep.Quarantined {
			log.Printf("crskyd: store: QUARANTINED %s (%s)", q.Path, q.Reason)
		}
	}

	srv := server.New(server.Config{
		CacheSize:          *cache,
		Workers:            *workers,
		MaxQueue:           *maxQueue,
		MaxBodyBytes:       *maxBody,
		SlowQueryThreshold: *slowQuery,
		SlowQueryLog:       slowW,
		Store:              st,
	})
	if st != nil {
		loaded, quarantined, err := srv.LoadFromStore()
		if err != nil {
			log.Fatalf("crskyd: load store: %v", err)
		}
		for _, name := range quarantined {
			log.Printf("crskyd: store: dataset %q failed to rebuild and was quarantined", name)
		}
		if loaded > 0 || len(quarantined) > 0 {
			log.Printf("crskyd: store: serving %d recovered datasets (%d quarantined)", loaded, len(quarantined))
		}
	}
	for _, spec := range preloads {
		if err := preload(srv, spec); err != nil {
			log.Fatalf("crskyd: preload %q: %v", spec, err)
		}
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	var adminSrv *http.Server
	if *adminAddr != "" {
		adminSrv = &http.Server{
			Addr:              *adminAddr,
			Handler:           srv.AdminHandler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			log.Printf("crskyd: admin listening on %s (/metrics, /debug/pprof)", *adminAddr)
			if err := adminSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Fatalf("crskyd: admin: %v", err)
			}
		}()
	}

	// Drain handshake: ListenAndServe returns ErrServerClosed the moment
	// Shutdown is CALLED, not when it finishes — main must wait for the
	// drained channel or it exits with requests still in flight.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		log.Printf("crskyd: shutting down (draining up to %s)", *drain)
		// BeginDrain flips admission to shed-everything (503 + Retry-After,
		// so load balancers fail over at once) and arms the hard-cancel
		// timer that stops every running computation, keeping Shutdown's
		// deadline honest against a long-running search.
		srv.BeginDrain(*drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("crskyd: drain incomplete: %v", err)
		}
		if adminSrv != nil {
			_ = adminSrv.Shutdown(shutdownCtx)
		}
	}()

	log.Printf("crskyd: listening on %s (cache=%d workers=%d)", *addr, *cache, *workers)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("crskyd: %v", err)
	}
	stop() // also reach here on a listener error: unblock the drain goroutine
	<-drained
	log.Printf("crskyd: shut down")
}

// cmdFsck verifies (and with -repair, repairs) a store directory offline
// and writes the report to stdout, as JSON with -json. Exit status: 0
// healthy or repaired, 1 unhealthy, 2 usage/IO error.
func cmdFsck(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fsck", flag.ExitOnError)
	dataDir := fs.String("data-dir", "", "store directory to check (required)")
	repair := fs.Bool("repair", false, "quarantine corrupt files, truncate a torn WAL tail, re-checkpoint, and compact")
	asJSON := fs.Bool("json", false, "write the report as JSON")
	_ = fs.Parse(args)
	if *dataDir == "" {
		fmt.Fprintln(stderr, "crskyd fsck: -data-dir is required")
		return 2
	}
	rep, err := store.Fsck(nil, *dataDir, *repair)
	if err != nil {
		fmt.Fprintf(stderr, "crskyd fsck: %v\n", err)
		return 2
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(stderr, "crskyd fsck: %v\n", err)
			return 2
		}
	} else {
		rep.Format(stdout)
	}
	if !rep.Repaired && !rep.Healthy() {
		return 1
	}
	return 0
}

// preload registers one name=model=path CSV dataset through the same code
// path as POST /v1/datasets.
func preload(srv *server.Server, spec string) error {
	parts := strings.SplitN(spec, "=", 3)
	if len(parts) != 3 {
		return fmt.Errorf("want name=model=path")
	}
	name, model, path := parts[0], parts[1], parts[2]
	csv, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	info, err := srv.Register(&server.DatasetRequest{Name: name, Model: model, CSV: string(csv)})
	if err != nil {
		return err
	}
	log.Printf("crskyd: registered %s (%s, %d objects, %d dims)", info.Name, info.Model, info.Size, info.Dims)
	return nil
}
