// Command ufilterd runs the U-Filter update gateway: a long-running
// HTTP/JSON daemon hosting a registry of named views, each a compiled
// ufilter.Filter over its own database (in memory, or durable with
// -data-dir), with a bounded concurrency limiter in front of the
// concurrent apply pipeline and live statistics endpoints.
//
// Usage:
//
//	ufilterd -addr :8080 -views book,tpch
//	ufilterd -addr 127.0.0.1:0 -views book,tpch:vbush,psd -queue 8
//	ufilterd -addr :8080 -views book -data-dir /var/lib/ufilterd
//	ufilterd -config ufilterd.json
//
// The -views flag takes comma-separated dataset specs: book, psd,
// tpch, or tpch:<variant> (vsuccess, vlinear, vbush, vfail:<relation>).
// Each spec registers a view named after the spec (":" becomes "-").
// A -config JSON file (see server.Config) replaces -views entirely and
// can size datasets, pick strategies and set per-view queue depths.
// Additional views can be registered at runtime via POST /views.
//
// With -data-dir (or "data_dir" in the config file) every view keeps a
// durable write-ahead log under <dir>/<view-name>: the first boot
// streams the dataset into pages (log line "seeded"), commits fsync
// before acknowledging, a background checkpointer bounds the log, and a
// restart over the same directory reads the mapped pages and replays
// every acknowledged transaction without running the generator (log
// line "recovered, seed skipped"). Without it the daemon runs purely in
// memory, as before.
//
// With -shards N (or "shards" in the config) each view hash-partitions
// its base tables across N storage shards, each with its own rows,
// indexes and commit latch. In durable mode the shards share the view's
// one write-ahead log under <dir>/<view-name> (a cross-shard transaction
// is one record and one fsync) and keep their pages under
// <dir>/<view-name>/shard-<i>. /stats and /metrics report per-shard
// rollups.
//
// Endpoints: GET /healthz, GET/POST /views, POST /views/{name}/check,
// /check-batch, /apply, /apply-batch, GET /views/{name}/stats,
// /views/{name}/slow, GET /metrics.
//
// Observability: -pprof-addr mounts net/http/pprof on a second
// listener (e.g. -pprof-addr 127.0.0.1:6060 →
// /debug/pprof/profile?seconds=1); operational output is structured
// log/slog records (text by default, JSON with -log-json); /metrics
// includes latency histogram families and /views/{name}/slow serves
// the slowest recent request traces with per-stage span breakdowns.
//
// Load and latency are measured by the benchmark (bash bench/run.sh);
// main_test.go drives the daemon end to end, kill -9 restarts included.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux for -pprof-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/pagestore"
	"repro/internal/relational"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (host:0 selects an ephemeral port)")
	configPath := flag.String("config", "", "JSON config file (server.Config); replaces -views")
	views := flag.String("views", "book,tpch", "comma-separated dataset specs to host: book, psd, tpch, tpch:<variant>")
	var flags server.Config
	flag.IntVar(&flags.ApplyQueueDepth, "queue", server.DefaultApplyQueueDepth, "default per-view apply admission queue depth")
	flag.StringVar(&flags.DataDir, "data-dir", "", "directory for per-view write-ahead logs (empty runs in-memory)")
	flag.IntVar(&flags.Shards, "shards", 0, "default per-view storage shard count (<=1 keeps the single-database path)")
	flag.Int64Var(&flags.PageCacheBytes, "page-cache-bytes", 0, "per-view checkpoint-page buffer pool budget in bytes, split across shards (0 uses the engine default; needs -data-dir)")
	pprofAddr := flag.String("pprof-addr", "", "listen address for net/http/pprof (host:0 selects an ephemeral port; empty disables profiling)")
	logJSON := flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
	flag.Parse()

	log := newLogger(*logJSON)
	slog.SetDefault(log)
	cfg, err := loadConfig(*configPath, *views, flags)
	if err != nil {
		fail(err)
	}
	if *pprofAddr != "" {
		// pprof gets its own listener so profiling never shares the
		// service port (or its admission behavior) with live traffic.
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fail(err)
		}
		log.Info("pprof listening", "addr", ln.Addr().String())
		go func() {
			if err := http.Serve(ln, nil); err != nil {
				log.Error("pprof server failed", "err", err)
			}
		}()
	}
	// Fault drills: RELATIONAL_FAULTS='sync:segment=crash-after@3' opens
	// every data dir through a pagestore.FaultFS armed with that spec (its
	// grammar is FaultFS.Arm's), for crash-recovery rehearsals. Unset, the
	// engine uses the bare os file system.
	if spec := os.Getenv("RELATIONAL_FAULTS"); spec != "" {
		faults := &pagestore.FaultFS{}
		if err := faults.Arm(spec); err != nil {
			fail(err)
		}
		relational.FileSystem = faults
	}
	if err := runServer(cfg, *addr, log); err != nil {
		fail(err)
	}
}

// newLogger builds the daemon's structured logger: text for humans,
// JSON for log pipelines.
func newLogger(jsonOut bool) *slog.Logger {
	if jsonOut {
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}

// loadConfig builds the server configuration from -config, or from the
// -views spec list and -queue when no file is given, then lays the
// storage flags over it. Both paths end here, so a page-cache budget
// with no data dir to page is refused here, whichever set it.
func loadConfig(path, viewSpecs string, flags server.Config) (*server.Config, error) {
	cfg := &server.Config{ApplyQueueDepth: flags.ApplyQueueDepth}
	if path != "" {
		var err error
		if cfg, err = server.LoadConfig(path); err != nil {
			return nil, err
		}
		viewSpecs = "" // the file replaces -views
	}
	for _, spec := range strings.Split(viewSpecs, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		vc := server.ViewConfig{Name: strings.ReplaceAll(spec, ":", "-")}
		dataset, variant, _ := strings.Cut(spec, ":")
		vc.Dataset = dataset
		if strings.EqualFold(dataset, "tpch") {
			vc.TPCHView = variant
		} else if variant != "" {
			return nil, fmt.Errorf("dataset %q takes no variant (got %q)", dataset, spec)
		}
		cfg.Views = append(cfg.Views, vc)
	}
	if flags.DataDir != "" {
		cfg.DataDir = flags.DataDir
	}
	if flags.Shards > 1 {
		cfg.Shards = flags.Shards
	}
	if flags.PageCacheBytes > 0 {
		cfg.PageCacheBytes = flags.PageCacheBytes
	}
	if cfg.PageCacheBytes > 0 && cfg.DataDir == "" {
		return nil, errors.New("-page-cache-bytes (page_cache_bytes) needs -data-dir (data_dir): an in-memory view has no pages to cache")
	}
	return cfg, nil
}

// runServer compiles every configured view into a fresh registry and
// serves it until SIGINT/SIGTERM, then drains gracefully.
func runServer(cfg *server.Config, addr string, log *slog.Logger) error {
	reg := server.NewRegistry()
	reg.DefaultQueueDepth = cfg.ApplyQueueDepth
	reg.DataDir = cfg.DataDir
	reg.DefaultShards = cfg.Shards
	reg.WALOptions.PageCacheBytes = cfg.PageCacheBytes
	for _, vc := range cfg.Views {
		if _, err := reg.Add(vc); err != nil {
			return err
		}
	}
	srv := server.New(reg)
	srv.Log = log
	// Background MVCC reclaimers keep version chains shallow while
	// snapshots come and go with check-batch and stats traffic.
	stopReclaimers := reg.StartReclaimers(2 * time.Second)
	defer stopReclaimers()
	if cfg.DataDir != "" {
		for _, v := range reg.Views() {
			if sd := v.Seed; sd != nil {
				log.Info("seeded", "view", v.Name, "rows", sd.Rows,
					"seed_duration", sd.Duration.Round(time.Millisecond),
					"checkpoint_passes", sd.Checkpoints, "dir", cfg.DataDir)
				continue
			}
			recovered := []relational.RecoveryInfo{}
			if v.Recovery != nil {
				recovered = append(recovered, *v.Recovery)
			} else if v.ShardRecovery != nil {
				recovered = v.ShardRecovery.Shards
			}
			var replayed, truncated int64
			var paged, rows int
			var torn bool
			for _, ri := range recovered {
				replayed += ri.ReplayedTxns
				paged += ri.CheckpointRows
				torn = torn || ri.TornTail
				// The shards share one log, so each reports the same
				// truncated tail: count it once.
				truncated = max(truncated, ri.TruncatedBytes)
			}
			for _, ss := range v.Filter.Exec.DB.ShardStats() {
				rows += ss.Rows
			}
			log.Info("recovered, seed skipped", "view", v.Name, "shards", len(recovered), "rows", rows,
				"replayed_txns", replayed, "checkpoint_rows", paged,
				"torn_tail", torn, "truncated_bytes", truncated, "dir", cfg.DataDir)
		}
		stopCheckpointers := reg.StartCheckpointers(5 * time.Second)
		defer stopCheckpointers()
		defer func() {
			if err := reg.CloseWALs(); err != nil {
				log.Error("wal close failed", "err", err)
			}
		}()
	}
	bound, err := srv.Listen(addr)
	if err != nil {
		return err
	}
	log.Info("listening", "addr", bound, "views", strings.Join(reg.Names(), ", "))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
	}
	log.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	return <-done
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ufilterd:", err)
	os.Exit(1)
}
