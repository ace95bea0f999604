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
//	ufilterd -loadgen -duration 3s -clients 16
//	ufilterd -loadgen -target http://127.0.0.1:8080 -loadgen-view book
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
// /check-batch, /apply, GET /views/{name}/stats, /views/{name}/slow,
// GET /metrics.
//
// Observability: -pprof-addr mounts net/http/pprof on a second
// listener (e.g. -pprof-addr 127.0.0.1:6060 →
// /debug/pprof/profile?seconds=1); operational output is structured
// log/slog records (text by default, JSON with -log-json); /metrics
// includes latency histogram families and /views/{name}/slow serves
// the slowest recent request traces with per-stage span breakdowns.
//
// The -loadgen mode demonstrates sustained concurrent traffic: it
// boots an in-process server (or targets -target), fans -clients
// goroutines over mixed check/apply HTTP traffic for -duration, and
// reports throughput, shed applies and the final cache hit rate.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux for -pprof-addr
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/bookdb"
	"repro/internal/relational"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (host:0 selects an ephemeral port)")
	configPath := flag.String("config", "", "JSON config file (server.Config); replaces -views")
	views := flag.String("views", "book,tpch", "comma-separated dataset specs to host: book, psd, tpch, tpch:<variant>")
	queue := flag.Int("queue", server.DefaultApplyQueueDepth, "default per-view apply admission queue depth")
	dataDir := flag.String("data-dir", "", "directory for per-view write-ahead logs (empty runs in-memory)")
	shards := flag.Int("shards", 0, "default per-view storage shard count (<=1 keeps the single-database path)")
	pageCacheBytes := flag.Int64("page-cache-bytes", 0, "per-view checkpoint-page buffer pool budget in bytes, split across shards (0 uses the engine default; needs -data-dir)")
	loadgen := flag.Bool("loadgen", false, "run the load generator instead of serving")
	target := flag.String("target", "", "loadgen: base URL of a running ufilterd (empty boots one in-process)")
	duration := flag.Duration("duration", 3*time.Second, "loadgen: how long to sustain traffic")
	clients := flag.Int("clients", 16, "loadgen: concurrent client goroutines")
	loadgenView := flag.String("loadgen-view", "book", "loadgen: view name to drive")
	pprofAddr := flag.String("pprof-addr", "", "listen address for net/http/pprof (empty disables profiling)")
	logJSON := flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
	flag.Parse()

	log := newLogger(*logJSON)
	slog.SetDefault(log)
	if *pprofAddr != "" {
		// pprof gets its own listener so profiling never shares the
		// service port (or its admission behavior) with live traffic.
		go func() {
			log.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Error("pprof server failed", "err", err)
			}
		}()
	}

	cfg, err := loadConfig(*configPath, *views, *queue)
	if err != nil {
		fail(err)
	}
	if *dataDir != "" {
		cfg.DataDir = *dataDir
	}
	if *shards > 1 {
		cfg.Shards = *shards
	}
	if *pageCacheBytes > 0 {
		cfg.PageCacheBytes = *pageCacheBytes
	}
	// Fault drills: RELATIONAL_FAILPOINTS='wal.fsync.before=crash@3'
	// arms engine failpoints for crash-recovery rehearsals (no-op when
	// the variable is unset).
	if err := relational.EnableFailpointsFromEnv(); err != nil {
		fail(err)
	}
	if *loadgen {
		if err := runLoadgen(cfg, *addr, *target, *loadgenView, *clients, *duration); err != nil {
			fail(err)
		}
		return
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
// -views spec list when no file is given.
func loadConfig(path, viewSpecs string, queueDepth int) (*server.Config, error) {
	if path != "" {
		return server.LoadConfig(path)
	}
	cfg := &server.Config{ApplyQueueDepth: queueDepth}
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
	return cfg, nil
}

// buildServer compiles every configured view into a fresh registry.
func buildServer(cfg *server.Config) (*server.Server, error) {
	reg := server.NewRegistry()
	reg.DefaultQueueDepth = cfg.ApplyQueueDepth
	reg.DataDir = cfg.DataDir
	reg.DefaultShards = cfg.Shards
	reg.WALOptions.PageCacheBytes = cfg.PageCacheBytes
	for _, vc := range cfg.Views {
		if _, err := reg.Add(vc); err != nil {
			return nil, err
		}
	}
	return server.New(reg), nil
}

// runServer serves until SIGINT/SIGTERM, then drains gracefully.
func runServer(cfg *server.Config, addr string, log *slog.Logger) error {
	srv, err := buildServer(cfg)
	if err != nil {
		return err
	}
	srv.Log = log
	// Background MVCC reclaimers keep version chains shallow while
	// snapshots come and go with check-batch and stats traffic.
	stopReclaimers := srv.Registry.StartReclaimers(2 * time.Second)
	defer stopReclaimers()
	if cfg.DataDir != "" {
		for _, v := range srv.Registry.Views() {
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
		stopCheckpointers := srv.Registry.StartCheckpointers(5 * time.Second)
		defer stopCheckpointers()
		defer func() {
			if err := srv.Registry.CloseWALs(); err != nil {
				log.Error("wal close failed", "err", err)
			}
		}()
	}
	bound, err := srv.Listen(addr)
	if err != nil {
		return err
	}
	log.Info("listening", "addr", bound, "views", strings.Join(srv.Registry.Names(), ", "))

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

// runLoadgen sustains mixed check/apply traffic against a server and
// prints a throughput summary.
func runLoadgen(cfg *server.Config, addr, target, viewName string, clients int, duration time.Duration) error {
	base := target
	var srv *server.Server
	if base == "" {
		var err error
		srv, err = buildServer(cfg)
		if err != nil {
			return err
		}
		if strings.HasSuffix(addr, ":8080") || addr == ":8080" {
			addr = "127.0.0.1:0" // don't squat the default port for a transient run
		}
		bound, err := srv.Listen(addr)
		if err != nil {
			return err
		}
		stopReclaimers := srv.Registry.StartReclaimers(time.Second)
		defer stopReclaimers()
		go func() { _ = srv.Serve() }()
		base = "http://" + bound
		fmt.Printf("ufilterd loadgen: booted in-process server on %s\n", bound)
	}
	base = strings.TrimRight(base, "/")

	// The workload: every client rotates over the paper's update corpus
	// plus per-client literal variants (template-tier cache traffic);
	// every eighth request is a full apply — an insert/delete pair that
	// restores the database — so the serialized pipeline and admission
	// queue see sustained pressure too.
	var checkTexts []string
	for _, u := range bookdb.AllUpdates() {
		checkTexts = append(checkTexts, u.Text)
	}
	for i := 0; i < 16; i++ {
		checkTexts = append(checkTexts, fmt.Sprintf(`
FOR $book IN document("BookView.xml")/book
WHERE $book/title/text() = "Title %d"
UPDATE $book { DELETE $book/review }`, i))
	}

	var checks, applies, shed, conflicted, errs atomic.Int64
	deadline := time.Now().Add(duration)
	client := &http.Client{Timeout: 30 * time.Second}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				if i%8 == 7 {
					ins := fmt.Sprintf(`
FOR $book IN document("BookView.xml")/book
WHERE $book/title/text() = "Data on the Web"
UPDATE $book {
  INSERT <review><reviewid>9%02d%04d</reviewid><comment> loadgen </comment></review>
}`, c, i)
					for _, u := range []string{ins, bookdb.U12} {
						status, err := postCheck(client, base, viewName, "apply", u)
						switch {
						case err != nil:
							errs.Add(1)
						case status == http.StatusTooManyRequests:
							shed.Add(1)
						case status == http.StatusConflict:
							// Write-write conflict retries exhausted: a
							// legitimate outcome under contended load, the
							// client's cue to re-submit.
							conflicted.Add(1)
						case status == http.StatusOK:
							applies.Add(1)
						default:
							errs.Add(1)
						}
					}
					continue
				}
				if i%16 == 3 {
					// Snapshot-pinned data check: the whole batch is
					// verified against one point-in-time view, even while
					// the apply clients above are mutating the database.
					status, err := postCheckBatchData(client, base, viewName,
						checkTexts[(c*31+i)%len(checkTexts)], checkTexts[(c*7+i)%len(checkTexts)])
					if err != nil || status != http.StatusOK {
						errs.Add(1)
						continue
					}
					checks.Add(2)
					continue
				}
				status, err := postCheck(client, base, viewName, "check", checkTexts[(c*31+i)%len(checkTexts)])
				if err != nil || status != http.StatusOK {
					errs.Add(1)
					continue
				}
				checks.Add(1)
			}
		}(c)
	}
	wg.Wait()

	stats, statsErr := fetchStats(client, base, viewName)
	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}
	secs := duration.Seconds()
	total := checks.Load() + applies.Load()
	fmt.Printf("loadgen: %d clients, %s against view %q\n", clients, duration, viewName)
	fmt.Printf("  checks:   %d (%.0f/s)\n", checks.Load(), float64(checks.Load())/secs)
	fmt.Printf("  applies:  %d (%.0f/s), %d shed with 429, %d conflicted with 409\n",
		applies.Load(), float64(applies.Load())/secs, shed.Load(), conflicted.Load())
	fmt.Printf("  errors:   %d\n", errs.Load())
	fmt.Printf("  total ok: %d (%.0f/s)\n", total, float64(total)/secs)
	if statsErr == nil {
		fmt.Printf("  server:   cache hit rate %.1f%%, %d stmts executed, %d rows scanned\n",
			100*stats.CacheHitRate, stats.Filter.Database.StatementsExecuted, stats.Filter.Executor.RowsScanned)
	}
	if errs.Load() > 0 {
		return fmt.Errorf("loadgen saw %d request errors", errs.Load())
	}
	return nil
}

// postCheck POSTs {"update": text} to /views/{view}/{op} and returns
// the HTTP status.
func postCheck(client *http.Client, base, view, op, update string) (int, error) {
	body, err := json.Marshal(map[string]string{"update": update})
	if err != nil {
		return 0, err
	}
	resp, err := client.Post(fmt.Sprintf("%s/views/%s/%s", base, view, op), "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// postCheckBatchData POSTs a {"updates": [...], "data": true} batch to
// /views/{view}/check-batch — the snapshot-pinned data-check path.
func postCheckBatchData(client *http.Client, base, view string, updates ...string) (int, error) {
	body, err := json.Marshal(map[string]any{"updates": updates, "data": true})
	if err != nil {
		return 0, err
	}
	resp, err := client.Post(fmt.Sprintf("%s/views/%s/check-batch", base, view), "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// fetchStats GETs /views/{view}/stats.
func fetchStats(client *http.Client, base, view string) (*server.ViewStats, error) {
	resp, err := client.Get(fmt.Sprintf("%s/views/%s/stats", base, view))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stats: HTTP %d", resp.StatusCode)
	}
	var st server.ViewStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ufilterd:", err)
	os.Exit(1)
}
