package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bookdb"
	"repro/internal/obs"
	"repro/internal/pagestore"
	"repro/internal/psd"
	"repro/internal/relational"
	"repro/internal/shard"
	"repro/internal/tpch"
	"repro/internal/ufilter"
)

// DefaultApplyQueueDepth bounds each view's apply concurrency limiter
// when the configuration does not choose one. Since the parallel write
// path, applies no longer queue behind one writer: every admitted
// request executes concurrently in its own MVCC transaction, so the
// depth is the number of applies allowed to be EXECUTING at once
// before the server starts shedding load with 429 — a concurrency
// limiter, not a wait queue.
const DefaultApplyQueueDepth = 16

// slowRingDepth is how many of the slowest recent traces each view
// retains for GET /views/{name}/slow.
const slowRingDepth = 32

// Config is the ufilterd configuration, loadable from a JSON file.
type Config struct {
	// Views seeds the registry at startup.
	Views []ViewConfig `json:"views"`
	// ApplyQueueDepth is the default per-view apply queue bound;
	// DefaultApplyQueueDepth when zero.
	ApplyQueueDepth int `json:"apply_queue_depth,omitempty"`
	// DataDir, when non-empty, makes every view durable: each gets a
	// write-ahead log under DataDir/<view-name>, recovered at startup.
	// Empty keeps the daemon fully in-memory (the default).
	DataDir string `json:"data_dir,omitempty"`
	// Shards is the default per-view shard count: views with Shards > 1
	// hash-partition their base tables across that many independent
	// storage shards (parallel commit latches and WAL fsyncs). Zero or
	// one keeps the single-database path.
	Shards int `json:"shards,omitempty"`
	// PageCacheBytes bounds each view's checkpoint-page buffer pool
	// (split across a view's shards); zero uses the engine default.
	// Only meaningful with DataDir set.
	PageCacheBytes int64 `json:"page_cache_bytes,omitempty"`
}

// ViewConfig describes one named view to host: a built-in dataset plus
// an optional custom view query over that dataset's schema.
type ViewConfig struct {
	// Name is the view's registry key, used in request paths.
	Name string `json:"name"`
	// Dataset selects the backing database: book, tpch or psd.
	Dataset string `json:"dataset"`
	// TPCHView selects the tpch view variant (vsuccess, vlinear, vbush,
	// vfail:<relation>); vsuccess when empty.
	TPCHView string `json:"tpch_view,omitempty"`
	// MB sizes the tpch dataset (nominal MB, default 1).
	MB int `json:"mb,omitempty"`
	// Proteins sizes the psd dataset (default 100).
	Proteins int `json:"proteins,omitempty"`
	// Query, when non-empty, replaces the dataset's built-in view query
	// (it must range over the dataset's schema).
	Query string `json:"query,omitempty"`
	// Strategy names the data-driven strategy: hybrid (default),
	// outside or internal.
	Strategy string `json:"strategy,omitempty"`
	// QueueDepth overrides the server-wide apply queue bound.
	QueueDepth int `json:"queue_depth,omitempty"`
	// Shards overrides the server-wide shard count for this view.
	Shards int `json:"shards,omitempty"`
}

// LoadConfig reads a JSON Config from a file.
func LoadConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("config %s: %w", path, err)
	}
	return &cfg, nil
}

// View is one hosted filter: a compiled ufilter.Filter over its own
// database, wrapped with an apply concurrency limiter and per-view
// traffic counters.
type View struct {
	Name     string
	Filter   *ufilter.Filter
	Dataset  string
	Strategy ufilter.Strategy

	// Recovery reports what WAL replay restored at startup; nil when the
	// registry runs in-memory (no DataDir) or the view is sharded
	// (ShardRecovery carries the per-shard reports instead).
	Recovery *relational.RecoveryInfo

	// ShardRecovery reports per-shard WAL replay for a durable sharded
	// view; nil otherwise.
	ShardRecovery *shard.Recovery

	// Seed reports the dataset load Add ran; nil when a durable view
	// recovered an existing directory and the generator never ran.
	Seed *SeedInfo

	// durable is true when the view's engine logs to disk (DataDir set),
	// sharded or not.
	durable bool

	// queue holds the admission slots for Apply: capacity is the bound
	// on applies executing concurrently (each in its own transaction);
	// a full limiter sheds load (429).
	queue chan struct{}

	// Per-endpoint end-to-end latency histograms (log-scaled buckets,
	// exported as Prometheus histogram families by /metrics). applyHist
	// also feeds the Retry-After p90 estimate under backpressure.
	checkHist      *obs.Histogram
	checkBatchHist *obs.Histogram
	applyHist      *obs.Histogram
	applyBatchHist *obs.Histogram

	// slow retains the slowest recent request traces, served at
	// GET /views/{name}/slow; the sequence counters drive the 1-in-N
	// span-trace sampling of single checks and applies (sampleTrace).
	slow          *obs.SlowRing
	checkTraceSeq atomic.Uint64
	applyTraceSeq atomic.Uint64

	checks          atomic.Int64
	checkErrors     atomic.Int64
	applies         atomic.Int64
	appliesAccepted atomic.Int64
	appliesRejected atomic.Int64
	appliesOverflow atomic.Int64
	applyBatches    atomic.Int64
	appliesConflict atomic.Int64 // applies answered 409 (retries exhausted)

	// Conflict-rate sampling for the Retry-After estimate: the engine's
	// cumulative conflict counter is sampled at shed time and the
	// per-second rate scales the backoff (conflictFactor).
	confMu   sync.Mutex
	confAt   time.Time
	confLast int64
	confRate float64

	// applyFn runs the full pipeline; defaults to Filter.Apply
	// (the context carries the request's trace, when one is attached).
	// Tests substitute a blocking function to exercise backpressure
	// deterministically.
	applyFn func(context.Context, string) (*ufilter.Result, error)
}

// SeedInfo describes one streamed dataset load and its wall time.
type SeedInfo struct {
	relational.LoadStats
	Duration time.Duration
}

// QueueCapacity returns the apply admission bound (the number of
// requests allowed to be running-or-waiting before load shedding).
func (v *View) QueueCapacity() int { return cap(v.queue) }

// tryAcquire claims an apply admission slot without blocking.
func (v *View) tryAcquire() bool {
	select {
	case v.queue <- struct{}{}:
		return true
	default:
		return false
	}
}

// admit claims an admission slot for an apply, or counts the shed and
// returns the *shedError the client is answered with.
func (v *View) admit(ctx context.Context) error {
	endAdmit := obs.FromContext(ctx).StartSpan("admission")
	admitted := v.tryAcquire()
	endAdmit()
	if admitted {
		return nil
	}
	v.appliesOverflow.Add(1)
	return &shedError{view: v.Name, depth: cap(v.queue), retryAfter: int(v.retryAfter() / time.Second)}
}

func (v *View) release() { <-v.queue }

// defaultApplyLatency seeds the Retry-After estimate before the
// apply-latency histogram has any samples: a freshly booted (or
// freshly registered) view that sheds on its very first burst has no
// observed p90 yet, so the estimate assumes each held slot costs this
// much. Deliberately pessimistic for a warm cache (real p90s are
// single-digit ms) — a cold shed means the pipeline is still compiling
// plans, which is exactly when clients should back off harder.
const defaultApplyLatency = 50 * time.Millisecond

// conflictRateSampleMin is the minimum spacing between conflict-rate
// samples; shed bursts between samples reuse the last rate.
const conflictRateSampleMin = 250 * time.Millisecond

// retryAfter estimates how long a shed request should wait before
// retrying from the limiter's live state: admitted applies run
// concurrently, so the expected drain time is the p90 apply latency
// scaled by how many slots are held per available lane (current depth
// × p90 ÷ capacity), rounded up to at least one second. The p90 comes
// from the apply-latency histogram rather than a running mean: under
// conflict retries apply latency is bimodal (fast no-conflict commits
// plus a slow backoff-and-retry tail), and the mean sits between the
// modes — below what a shed request will actually wait behind. A
// half-empty limiter still quotes a shorter retry than a full one.
//
// Two refinements on the raw formula: an empty histogram (cold start)
// falls back to queue-depth × defaultApplyLatency instead of a
// meaningless degenerate estimate, and the result is scaled by the
// recent write-conflict rate (conflictFactor) so backoff stretches
// when retries are churning the same contended rows.
func (v *View) retryAfter() time.Duration {
	depth := len(v.queue)
	if depth == 0 {
		depth = 1
	}
	lanes := cap(v.queue)
	if lanes == 0 {
		lanes = 1
	}
	var est time.Duration
	if s := v.applyHist.Snapshot(); s.Count == 0 {
		est = defaultApplyLatency * time.Duration(depth)
	} else {
		est = time.Duration(s.P90()) * time.Duration(depth) / time.Duration(lanes)
	}
	est = time.Duration(float64(est) * v.conflictFactor())
	if est < time.Second {
		return time.Second
	}
	return est.Round(time.Second)
}

// conflictFactor is the conflict-aware admission term: the engine's
// txn_conflicts_total counter is sampled (at most once per
// conflictRateSampleMin) and the per-second delta rate scales the
// Retry-After estimate — 1x when conflict-free, +1x per 10 conflicts/s,
// capped at 4x. Shed responses under conflict churn thus quote longer
// waits than sheds under clean overload, without a feedback loop: the
// engine's statistics are read only when a sample is due, never per
// shed, and never on the apply path.
func (v *View) conflictFactor() float64 {
	now := time.Now()
	v.confMu.Lock()
	defer v.confMu.Unlock()
	if first := v.confAt.IsZero(); first || now.Sub(v.confAt) >= conflictRateSampleMin {
		cur := v.Filter.Exec.DB.Stats().Conflicts
		if !first {
			v.confRate = float64(cur-v.confLast) / now.Sub(v.confAt).Seconds()
		}
		v.confAt, v.confLast = now, cur
	}
	f := 1 + v.confRate/10
	if f > 4 {
		f = 4
	}
	return f
}

// OfferSlow submits a finished request trace to the view's slow ring.
func (v *View) OfferSlow(ts obs.TraceSummary) { v.slow.Offer(ts) }

// sampleTrace decides whether an untraced-by-request operation should
// record a span trace this time: true on the first call and every n-th
// after, so the slow ring sees fresh traces under sustained traffic
// while the fast path stays histogram-only.
func (v *View) sampleTrace(seq *atomic.Uint64, n uint64) bool { return seq.Add(1)%n == 1 }

// SlowTraces returns the slowest recent traces, slowest first.
func (v *View) SlowTraces() []obs.TraceSummary { return v.slow.Snapshot() }

// Check classifies one update through the schema-level steps and bumps
// the view's counters; a trace on the context records the stage spans.
func (v *View) Check(ctx context.Context, update string) (*ufilter.Result, error) {
	v.checks.Add(1)
	start := time.Now()
	res, err := v.Filter.Check(ctx, update)
	v.checkHist.RecordDuration(time.Since(start))
	if err != nil {
		v.checkErrors.Add(1)
	}
	return res, err
}

// CheckBatch fans a batch across the filter's worker pool. With data it
// pins one database snapshot for the whole batch and runs the
// snapshot-isolated data check (Steps 1+2 plus read-only Step 3 probes)
// on every update: the batch observes a single point-in-time state and
// never waits behind an in-flight apply. The batch runs under one
// "execute" span — the filter-level fan-out does not thread per-item
// contexts, so the trace shows the batch as a unit.
func (v *View) CheckBatch(ctx context.Context, updates []string, workers int, data bool) []ufilter.BatchResult {
	v.checks.Add(int64(len(updates)))
	endRun := obs.FromContext(ctx).StartSpan("execute")
	start := time.Now()
	var out []ufilter.BatchResult
	if data {
		snap := v.Filter.Snapshot()
		out = v.Filter.CheckBatchDataAt(snap, updates, workers)
		snap.Close()
	} else {
		out = v.Filter.CheckBatch(updates, workers)
	}
	endRun()
	v.checkBatchHist.RecordDuration(time.Since(start))
	for _, br := range out {
		if br.Err != nil {
			v.checkErrors.Add(1)
		}
	}
	return out
}

// Apply admits one full-pipeline update if a concurrency slot is
// free; admitted applies execute in parallel, each in its own
// transaction. A saturated limiter sheds the request with a *shedError
// carrying the retry hint. An err wrapping relational.ErrWriteConflict
// means the apply exhausted its conflict retries.
func (v *View) Apply(ctx context.Context, update string) (res *ufilter.Result, err error) {
	if err := v.admit(ctx); err != nil {
		return nil, err
	}
	defer v.release()
	start := time.Now()
	res, err = v.applyFn(ctx, update)
	v.applyHist.RecordDuration(time.Since(start))
	v.applies.Add(1)
	switch {
	case err != nil:
		if errors.Is(err, relational.ErrWriteConflict) {
			v.appliesConflict.Add(1)
		}
		err = fmt.Errorf("apply on view %q: %w", v.Name, err)
	case res.Accepted:
		v.appliesAccepted.Add(1)
	default:
		v.appliesRejected.Add(1)
	}
	return res, err
}

// ApplyBatch admits a whole batch under ONE concurrency slot — the
// batch is one transaction-sized unit of work — and runs it through
// the filter's group-commit path (one shared transaction, one log
// flush for all accepted updates; conflicted items retry in follow-up
// rounds). A saturated limiter sheds the batch as Apply sheds.
func (v *View) ApplyBatch(ctx context.Context, updates []string) ([]ufilter.BatchResult, error) {
	if err := v.admit(ctx); err != nil {
		return nil, err
	}
	defer v.release()
	endRun := obs.FromContext(ctx).StartSpan("execute")
	start := time.Now()
	results := v.Filter.ApplyBatch(updates)
	endRun()
	v.applyBatchHist.RecordDuration(time.Since(start))
	v.applies.Add(int64(len(updates)))
	v.applyBatches.Add(1)
	for _, br := range results {
		switch {
		case br.Err != nil:
		case br.Result != nil && br.Result.Accepted:
			v.appliesAccepted.Add(1)
		default:
			v.appliesRejected.Add(1)
		}
	}
	return results, nil
}

// ViewStats is the wire form of GET /views/{name}/stats, and what
// /metrics renders: a field's stat tag declares its family (see
// obs.WriteStats), and the untagged structs under it declare theirs.
type ViewStats struct {
	View        string     `json:"view"`
	Dataset     string     `json:"dataset"`
	Strategy    string     `json:"strategy"`
	Checks      int64      `json:"checks" stat:"checks_total,counter,sum" help:"Schema-level checks served."`
	CheckErrors int64      `json:"check_errors" stat:"check_errors_total,counter,sum" help:"Checks that failed to parse or errored."`
	Applies     ApplyStats `json:"applies"`
	Queue       QueueStats `json:"queue"`
	// QueueDepth is the number of apply requests currently
	// running-or-waiting — the live depth Retry-After estimates drain
	// from (the queue's capacity is Queue.Depth).
	QueueDepth   int           `json:"queue_depth"`
	Filter       ufilter.Stats `json:"filter"`
	CacheHitRate float64       `json:"cache_hit_rate" stat:"cache_hit_rate,gauge,max" help:"hits/(hits+misses); ~1 once the traffic's templates are resident, whatever the values."`
	// TxnConflictsTotal / TxnRetriesTotal / TxnsActive surface the
	// parallel write path at the top level: write-write conflicts the
	// engine detected, apply attempts re-run after a conflict, and
	// transactions currently open against the view's database.
	TxnConflictsTotal int64 `json:"txn_conflicts_total"`
	TxnRetriesTotal   int64 `json:"txn_retries_total"`
	TxnsActive        int64 `json:"txns_active"`
	// CheckLatency / ApplyLatency summarize the per-endpoint end-to-end
	// latency histograms (quantiles estimated from the log-scaled
	// buckets; /metrics carries the full distributions, Requests).
	CheckLatency LatencyStats `json:"check_latency"`
	ApplyLatency LatencyStats `json:"apply_latency"`
	// RowsTotal is the database size counted through a snapshot pinned
	// for this stats request, so the number is a coherent point-in-time
	// count even while an apply is mutating tables.
	RowsTotal int `json:"rows_total" stat:"rows_total,gauge,sum" help:"Rows visible through a snapshot pinned for this scrape."`
	// Shards is the view's storage shard count (1 = unsharded).
	Shards int `json:"shards" stat:"shards,gauge,max" help:"Storage shards backing the view (1 = unsharded)."`
	// ShardStats carries the per-shard statistics rollups for sharded
	// views (omitted when Shards is 1).
	ShardStats []relational.ShardStat `json:"shard_stats,omitempty"`
	// Versions describes the MVCC version store's shape: row and version
	// counts and chain depth (snapshot and reclaim counters are under
	// filter.database).
	Versions relational.VersionStats `json:"versions"`

	// The histograms are /metrics only: the endpoints' latency
	// (per-endpoint series), the single applies' again as the
	// Retry-After source, and the plan layer's.
	Requests    []EndpointLatency `json:"-"`
	ApplyHist   obs.Snapshot      `json:"-" stat:"apply_latency_seconds,histogram,sum" help:"End-to-end single-apply latency (the Retry-After p90 source)."`
	CompileHist obs.Snapshot      `json:"-" stat:"plan_compile_seconds,histogram,sum" help:"Full plan compilation time (one per template: resolve + STAR + artifacts)."`
	RetriesHist obs.Snapshot      `json:"-" stat:"txn_retries_per_apply,histogram,sum" help:"Conflict-retry attempts per finished apply (bucket 0 = conflict-free)."`
	CommitWait  obs.Snapshot      `json:"-" stat:"commit_wait_seconds,histogram,sum" help:"Wait inside an apply's Commit, from the call to the published acknowledgment, fsync included."`
}

// EndpointLatency is one endpoint's end-to-end latency distribution.
type EndpointLatency struct {
	Endpoint string       `json:"endpoint" stat:"endpoint,label"`
	Latency  obs.Snapshot `json:"-" stat:"request_duration_seconds,histogram,sum" help:"End-to-end request latency per endpoint."`
}

// ApplyStats breaks down the full-pipeline traffic.
type ApplyStats struct {
	Total    int64 `json:"total" stat:"applies_total,counter,sum" help:"Full-pipeline applies executed."`
	Accepted int64 `json:"accepted" stat:"applies_accepted_total,counter,sum" help:"Applies accepted and committed."`
	Rejected int64 `json:"rejected" stat:"applies_rejected_total,counter,sum" help:"Applies rejected by the pipeline."`
	// Batches counts group-commit apply-batch calls (each covering
	// many updates under one transaction and one log flush).
	Batches int64 `json:"batches" stat:"apply_batches_total,counter,sum" help:"Group-commit apply-batch calls."`
	// Conflicted counts applies answered 409 Conflict (write-write
	// conflict retries exhausted).
	Conflicted int64 `json:"conflicted" stat:"apply_conflict_409_total,counter,sum" help:"Applies answered 409 after exhausting conflict retries."`
}

// QueueStats reports the admission queue's shape and shed count.
type QueueStats struct {
	Depth    int   `json:"depth" stat:"apply_queue_depth,gauge,sum" help:"Apply concurrency limiter capacity."`
	InFlight int   `json:"in_flight" stat:"apply_queue_in_flight,gauge,sum" help:"Apply slots currently held."`
	Shed     int64 `json:"shed" stat:"apply_queue_shed_total,counter,sum" help:"Applies shed with 429 by the concurrency limiter."`
}

// LatencyStats is the wire summary of one latency histogram.
type LatencyStats struct {
	Count uint64  `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
}

func latencyStats(s obs.Snapshot) LatencyStats {
	return LatencyStats{
		Count: s.Count,
		P50Ms: s.P50() / 1e6,
		P90Ms: s.P90() / 1e6,
		P99Ms: s.P99() / 1e6,
	}
}

// Stats snapshots the view's counters, safe under concurrent traffic.
// Row counts are read through a pinned snapshot, never from the live
// tables an apply may be mutating.
func (v *View) Stats() ViewStats {
	fs := v.Filter.Stats()
	eng := v.Filter.Exec.DB
	snap := eng.OpenSnapshot()
	versions := snap.VersionStats() // one walk: shape + pinned row count
	snap.Close()
	shardStats := eng.ShardStats()
	shards := len(shardStats)
	if shards == 1 {
		shardStats = nil // an unsharded view omits the per-shard block
	}
	checks, applies := v.checkHist.Snapshot(), v.applyHist.Snapshot()
	return ViewStats{
		View:        v.Name,
		Dataset:     v.Dataset,
		Strategy:    v.Strategy.String(),
		Checks:      v.checks.Load(),
		CheckErrors: v.checkErrors.Load(),
		Applies: ApplyStats{
			Total:      v.applies.Load(),
			Accepted:   v.appliesAccepted.Load(),
			Rejected:   v.appliesRejected.Load(),
			Batches:    v.applyBatches.Load(),
			Conflicted: v.appliesConflict.Load(),
		},
		TxnConflictsTotal: fs.Database.Conflicts,
		TxnRetriesTotal:   fs.Write.Retries,
		TxnsActive:        fs.Database.TxnsActive,
		Queue: QueueStats{
			Depth:    cap(v.queue),
			InFlight: len(v.queue),
			Shed:     v.appliesOverflow.Load(),
		},
		QueueDepth:   len(v.queue),
		Filter:       fs,
		CacheHitRate: fs.Cache.HitRate(),
		CheckLatency: latencyStats(checks),
		ApplyLatency: latencyStats(applies),
		RowsTotal:    versions.VisibleRows,
		Shards:       shards,
		ShardStats:   shardStats,
		Versions:     versions,
		Requests: []EndpointLatency{
			{"check", checks},
			{"check-batch", v.checkBatchHist.Snapshot()},
			{"apply", applies},
			{"apply-batch", v.applyBatchHist.Snapshot()},
		},
		ApplyHist:   applies,
		CompileHist: v.Filter.Obs.Compile.Snapshot(),
		RetriesHist: v.Filter.Obs.Retries.Snapshot(),
		CommitWait:  v.Filter.Obs.CommitWait.Snapshot(),
	}
}

// Registry is the concurrency-safe set of hosted views.
type Registry struct {
	// DefaultQueueDepth is the apply admission bound for views whose
	// config does not set one; DefaultApplyQueueDepth when zero. Set it
	// before serving traffic (it is read without synchronization).
	DefaultQueueDepth int

	// DataDir, when non-empty, gives every added view a durable
	// write-ahead log under DataDir/<view-name>: Add recovers whatever a
	// previous process left there (streaming the dataset in only on
	// first boot, or again after a boot that died mid-seed) and
	// subsequent applies survive kill -9. Set it before the first Add
	// (read without synchronization).
	DataDir string

	// DefaultShards is the shard count for views whose config does not
	// set one; <= 1 keeps the single-database path. Set it before the
	// first Add (read without synchronization).
	DefaultShards int

	// WALOptions tunes the per-view logs when DataDir is set; the zero
	// value uses production defaults.
	WALOptions relational.WALOptions

	mu    sync.RWMutex
	views map[string]*View
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{views: make(map[string]*View)}
}

// viewName is what a view name must match to round-trip through the
// /views/{name}/... route patterns (one path segment, no escaping);
// "." and ".." are refused too, the name being a directory under DataDir.
var viewName = regexp.MustCompile(`^[A-Za-z0-9._-]+$`)

// Add compiles and registers a view from its configuration. The name
// must be a single path segment ([A-Za-z0-9._-]+) and unused; it is
// reserved before anything is built, so two Adds of one name never share
// a data dir. A failure to open or seed the view's storage answers
// storage_unavailable; any other failure is the configuration's fault.
func (r *Registry) Add(vc ViewConfig) (*View, error) {
	name := strings.TrimSpace(vc.Name)
	if !viewName.MatchString(name) || name == "." || name == ".." {
		return nil, fmt.Errorf("view name %q must be non-empty and contain only letters, digits, '.', '_' or '-'", name)
	}
	r.mu.Lock()
	_, taken := r.views[name]
	if !taken {
		r.views[name] = nil // the reservation: Get and Views skip it
	}
	r.mu.Unlock()
	if taken {
		return nil, fmt.Errorf("view %q already exists", name)
	}
	v, err := r.build(name, vc)
	r.mu.Lock()
	if err != nil {
		delete(r.views, name)
	} else {
		r.views[name] = v
	}
	r.mu.Unlock()
	return v, err
}

// build compiles the view Add reserved. The dataset streams into a
// schema-only engine whose storage is already attached (openStorage), so
// boot memory does not grow with it; a DataDir directory holding
// committed state is recovered instead.
func (r *Registry) build(name string, vc ViewConfig) (*View, error) {
	strategy, err := ufilter.ParseStrategy(vc.Strategy)
	if err != nil {
		return nil, err
	}
	schema, fill, builtinQuery, err := datasetFor(vc)
	if err != nil {
		return nil, err
	}
	shards := vc.Shards
	if shards <= 0 {
		shards = r.DefaultShards
	}
	depth := vc.QueueDepth
	if depth <= 0 {
		depth = r.DefaultQueueDepth
	}
	if depth <= 0 {
		depth = DefaultApplyQueueDepth
	}
	v := &View{
		Name:           name,
		Dataset:        strings.ToLower(vc.Dataset),
		Strategy:       strategy,
		durable:        r.DataDir != "",
		queue:          make(chan struct{}, depth),
		checkHist:      obs.NewDurationHistogram(),
		checkBatchHist: obs.NewDurationHistogram(),
		applyHist:      obs.NewDurationHistogram(),
		applyBatchHist: obs.NewDurationHistogram(),
		slow:           obs.NewSlowRing(slowRingDepth),
	}
	eng, err := r.openStorage(v, schema, fill, shards)
	if err != nil {
		return nil, codeError{codeStorageUnavailable, fmt.Errorf("view %s: %w", name, err)}
	}
	query := vc.Query
	if strings.TrimSpace(query) == "" {
		query = builtinQuery
	}
	f, err := ufilter.New(query, eng)
	if err != nil {
		_ = eng.CloseWAL()
		return nil, fmt.Errorf("view %s: %w", name, err)
	}
	f.Strategy = strategy
	v.Filter = f
	v.applyFn = f.Apply
	return v, nil
}

// seedMarker exists in a durable view's directory exactly while its
// seed is in progress: created (directory fsynced) before the first
// batch, removed (fsynced again) after the final checkpoint. Present at
// Add, the directory holds part of a seed and nothing else, and is
// wiped; absent, a directory is never condemned: it is recovered, or
// refused untouched when it holds another on-disk format.
const seedMarker = "seed.inprogress"

// openStorage builds the view's engine (a shard group when shards > 1;
// durable under DataDir/<view-name> when DataDir is set) and streams the
// dataset in unless recovery found committed state. It records the
// recovery and seed reports on v.
func (r *Registry) openStorage(v *View, schema *relational.Schema, fill func(relational.Inserter) error, shards int) (relational.Engine, error) {
	dir, marker := "", ""
	if r.DataDir != "" {
		dir = filepath.Join(r.DataDir, v.Name)
		marker = filepath.Join(dir, seedMarker)
		_, err := os.Stat(marker)
		if err == nil {
			err = os.RemoveAll(dir) // an interrupted seed: redo it from scratch
		} else if errors.Is(err, os.ErrNotExist) {
			err = nil
		}
		if err != nil {
			return nil, err
		}
	}
	var (
		eng  relational.Engine
		load func(func(relational.Inserter) error) (relational.LoadStats, error)
		// committed is the recovered commit clock: zero means nothing was
		// ever committed here, so the dataset is still to be seeded.
		committed uint64
	)
	if shards > 1 {
		// The shards share one log under <dir>; each keeps its pages
		// under <dir>/shard-<i>.
		sdb, srec, err := shard.New(schema, shards, shard.Options{Dir: dir, WAL: r.WALOptions})
		if err != nil {
			return nil, err
		}
		eng, load = sdb, sdb.Load
		if dir != "" {
			v.ShardRecovery = srec
			for _, ri := range srec.Shards {
				committed += ri.CommitSeq
			}
		}
	} else {
		db := relational.NewDatabase(schema)
		eng, load = db, db.Load
		if dir != "" {
			rec, err := db.OpenWAL(dir, r.WALOptions)
			if err != nil {
				return nil, err
			}
			v.Recovery, committed = rec, rec.CommitSeq
		}
	}
	if committed > 0 {
		return eng, nil
	}
	start := time.Now()
	var err error
	fs := relational.FileSystem
	if dir != "" {
		var f pagestore.File
		if f, err = fs.OpenFile(marker, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644); err == nil {
			err = f.Close()
		}
		if err == nil {
			err = fs.SyncDir(dir)
		}
	}
	var stats relational.LoadStats
	if err == nil {
		stats, err = load(fill)
	}
	if err == nil && dir != "" {
		if err = fs.Remove(marker); err == nil {
			err = fs.SyncDir(dir)
		}
	}
	if err != nil {
		_ = eng.CloseWAL()
		return nil, fmt.Errorf("seed: %w", err)
	}
	v.Seed = &SeedInfo{LoadStats: stats, Duration: time.Since(start)}
	return eng, nil
}

// Get fetches a view by name.
func (r *Registry) Get(name string) (*View, bool) {
	r.mu.RLock()
	v := r.views[name]
	r.mu.RUnlock()
	return v, v != nil
}

// Names lists the registered view names, sorted.
func (r *Registry) Names() []string {
	var out []string
	for _, v := range r.Views() {
		out = append(out, v.Name)
	}
	return out
}

// StartReclaimers runs a background MVCC version reclaimer on every
// currently registered view's database and returns a stop function
// (idempotent) that halts them all. The daemon calls it once at boot;
// commit-piggybacked reclaim still covers views added later.
func (r *Registry) StartReclaimers(interval time.Duration) (stop func()) {
	var stops []func()
	for _, v := range r.Views() {
		stops = append(stops, v.Filter.Exec.DB.StartReclaimer(interval))
	}
	return func() {
		for _, s := range stops {
			s()
		}
	}
}

// StartCheckpointers runs a background WAL checkpointer on every
// currently registered durable view's database and returns a stop
// function (idempotent). No-op goroutine-free for in-memory views.
func (r *Registry) StartCheckpointers(interval time.Duration) (stop func()) {
	var stops []func()
	for _, v := range r.Views() {
		if v.durable {
			stops = append(stops, v.Filter.Exec.DB.StartCheckpointer(interval))
		}
	}
	return func() {
		for _, s := range stops {
			s()
		}
	}
}

// CloseWALs seals every durable view's write-ahead log for shutdown
// (final fsync; later commits fail, reads keep serving). The first
// error is returned, but every log is closed regardless.
func (r *Registry) CloseWALs() error {
	var firstErr error
	for _, v := range r.Views() {
		if err := v.Filter.Exec.DB.CloseWAL(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Views lists the registered views in name order.
func (r *Registry) Views() []*View {
	r.mu.RLock()
	out := make([]*View, 0, len(r.views))
	for _, v := range r.views {
		if v != nil {
			out = append(out, v)
		}
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// BuildDataset instantiates the built-in dataset a view ranges over in
// memory, returning the database and its default view query (the
// ufilter CLI's entry point).
func BuildDataset(vc ViewConfig) (*relational.Database, string, error) {
	schema, fill, query, err := datasetFor(vc)
	if err != nil {
		return nil, "", err
	}
	db := relational.NewDatabase(schema)
	_, err = db.Load(fill)
	return db, query, err
}

// datasetFor is the one implementation of dataset/variant dispatch: a
// built-in dataset's schema, the generator that emits its rows and its
// default view query.
func datasetFor(vc ViewConfig) (schema *relational.Schema, fill func(relational.Inserter) error, query string, err error) {
	switch strings.ToLower(vc.Dataset) {
	case "book", "":
		schema, err = bookdb.Schema(relational.DeleteCascade)
		return schema, bookdb.Populate, bookdb.ViewQuery, err
	case "psd":
		proteins := vc.Proteins
		if proteins <= 0 {
			proteins = 100
		}
		schema, err = psd.Schema()
		fill = func(sink relational.Inserter) error { return psd.Populate(sink, proteins) }
		return schema, fill, psd.ViewQuery, err
	case "tpch":
		mb := vc.MB
		if mb <= 0 {
			mb = 1
		}
		query = tpch.VsuccessQuery
		viewName := vc.TPCHView
		switch {
		case viewName == "" || strings.EqualFold(viewName, "vsuccess"):
		case strings.EqualFold(viewName, "vlinear"):
			query = tpch.VlinearQuery
		case strings.EqualFold(viewName, "vbush"):
			query = tpch.VbushQuery
		case strings.HasPrefix(strings.ToLower(viewName), "vfail:"):
			query = tpch.VfailQuery(strings.ToLower(viewName[len("vfail:"):]))
		default:
			return nil, nil, "", fmt.Errorf("unknown tpch view %q", viewName)
		}
		schema, err = tpch.Schema()
		fill = func(sink relational.Inserter) error { return tpch.Generate(sink, tpch.RowsForMB(mb)) }
		return schema, fill, query, err
	default:
		return nil, nil, "", fmt.Errorf("unknown dataset %q (want book, tpch or psd)", vc.Dataset)
	}
}
