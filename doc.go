// Package repro is a from-scratch Go reproduction of "U-Filter: A
// Lightweight XML View Update Checker" (Wang, Rundensteiner, Mani;
// WPI-CS-TR-05-11 / ICDE 2006): a three-step framework that decides,
// before any translation is attempted, whether an update against a
// virtual XML view of a relational database has a correct relational
// translation.
//
// The facade re-exports the library's primary entry points; the
// subsystems live under internal/:
//
//   - internal/relational — in-memory relational engine (constraints,
//     indexes, FK delete policies, WAL, transactions)
//   - internal/sqlexec    — SQL AST + executor, materialized probe
//     results, updatable left-join views
//   - internal/xmltree    — XML document model
//   - internal/xqparse    — view-query and update-language parsers
//   - internal/viewengine — XML view materialization
//   - internal/asg        — Annotated Schema Graphs and closures
//   - internal/ufilter    — the U-Filter pipeline (the paper's core):
//     validation, STAR, data checks, translation and the plan cache
//   - internal/tpch, internal/bookdb, internal/psd,
//     internal/w3cusecases — datasets and workloads
//   - internal/shard      — intra-view sharding: hash-partitioned row
//     storage across N engine shards with scatter-gather probes
//   - internal/experiments — the harness regenerating every table and
//     figure of the paper's evaluation (cmd/benchrunner writes them to
//     EXPERIMENTS.md; how fast the system is, is bench/'s question)
//
// Quick start:
//
//	ctx := context.Background()
//	db, _ := bookdb.NewDatabase(relational.DeleteCascade)
//	f, _ := repro.NewFilter(bookdb.ViewQuery, db)
//	res, _ := f.Check(ctx, bookdb.U9)   // schema-level steps 1+2
//	res, _ = f.Apply(ctx, bookdb.U13)   // full pipeline + execution
//
// A Filter is safe for concurrent Check calls and routes everything
// through an internal plan cache: each update template
// (the update with its predicate literals and content values stripped)
// is compiled once into an immutable UpdatePlan — resolution, Steps
// 1+2, parameterized probe SQL — and every structurally-equal update
// afterwards binds its literals and content values into the plan (the
// verdict of Steps 1+2 depends only on the view, the schema and those
// values, never on base data).
// CheckBatch fans a slice of updates across a worker pool; Prepare/
// Execute expose the compile-once/execute-many fast path; ApplyBatch
// group-commits N updates under one transaction and one log flush, and
// Apply and Execute run the same path with a batch of one:
//
// Write-concurrency contract. Applies run in parallel: every
// Apply/Execute/ApplyBatch is a group run through one retrying runner
// in its own transaction against the MVCC engine (every SQL write
// statement runs in that transaction), independent updates commit
// concurrently with their write-ahead-log flushes coalesced by the
// engine's WAL writer stage (commits that queue behind one fsync share
// the next, and one group stamps while the previous group's fsync is in
// flight), and two updates that write the same rows resolve by
// first-updater-wins — the loser retries automatically with capped
// backoff and surfaces relational.ErrWriteConflict only when retries
// are exhausted ("plan: apply lost N write-conflict races"; the
// ufilterd gateway maps that to 409 Conflict). Each update is atomic:
// all of its translated statements commit together or none do.
//
// Read-consistency contract. Checking never waits on executing: the
// relational engine is multi-versioned (internal/relational) and
// every check runs lock-free.
// Check/CheckBatch are schema-only. CheckDataAt and CheckBatchDataAt
// add Step 3's read-only probes (update-context existence, shared-part
// consistency) evaluated against a snapshot the caller pins — one
// snapshot serves a whole batch — so a check sees a single
// point-in-time view: all of a concurrent apply's effects or none of
// them, never a torn intermediate state. Snapshots are O(1) to take
// (f.Snapshot(), close when done); old row versions
// are retained until the oldest live snapshot releases them and are
// then freed by the reclaimer (inline on commits, or in the background
// via relational.Database.StartReclaimer).
//
//	results := f.CheckBatch(updates, runtime.GOMAXPROCS(0))
//	pin := f.Snapshot()                 // pin once, check many
//	checked := f.CheckBatchDataAt(pin, updates, 0)
//	pin.Close()
//	p, _ := f.Prepare(updateText)       // compile once
//	res, _ := f.Execute(p, args)        // bind + run, no parsing
//	batch := f.ApplyBatch(updateTexts)  // group commit
//	stats := f.CacheStats() // hit/miss/plan counters, HitRate()
//	snap := f.Stats()       // cache + executor + database counters
//
// Sharding contract. A view may hash-partition its base-table rows
// across N independent engine shards (internal/shard; ufilterd
// -shards, per-view "shards" in the server config; N=1 is bit-for-bit
// the unsharded path). Root rows route by primary-key hash and child
// rows co-locate with their FK parents, so FK checks and delete
// cascades stay shard-local; uniqueness the partitioning cannot
// localize is enforced by scatter probes. Reads see a consistent
// vector of shard snapshots pinned atomically, and a durable view keeps
// ONE write-ahead log its shards share: an apply confined to one shard
// commits under that shard's latch, an apply spanning shards under each
// of theirs as one record carrying every shard's redo — one fsync,
// shared with whatever else queued, and crash recovery replays it on
// every shard or on none.
//
// Durability contract. With a WAL directory open
// (relational.Database.OpenWAL; ufilterd -data-dir), an acknowledged
// commit is a durable commit: its record has been fsynced before any
// reader can see its versions. The commit path is pipelined — a group
// encodes its record off-latch, stamps sequences under the commit
// latch, and hands the record to a WAL writer stage so the next group
// stamps while the previous fsync runs; publication happens strictly
// in stamp order after the covering fsync, and a failed flush rolls
// back exactly its group (every member gets relational.ErrWALFailed,
// nothing half-durable). Checkpoints write through a paged store
// (internal/pagestore): only rows dirtied since the last checkpoint
// are serialized, as fresh copy-on-write 4KiB slotted pages (heap
// writes O(dirty-pages), not O(database)), and the one page-directory
// file, about 12 bytes a live page, is replaced whole (tmp, fsync,
// rename), so a directory that fails its CRC is refused as corrupt,
// never truncated as a torn tail; recovery maps the pages into row
// slots and index entries, with no in-memory version per row, and
// replays the WAL tail, then pages fault in on first read through a
// buffer pool bounded by WALOptions.PageCacheBytes (ufilterd
// -page-cache-bytes) — so restart latency tracks the directory, not the
// dataset, and checkpointed cold rows drop their versions again,
// letting the data exceed RAM under a hard memory budget. Every active segment is pre-extended to its full size
// when it opens and no record crosses its end (one that would starts the
// next segment), so a commit's fsync never journals a file growing, and
// retired segments are removed. Every file operation goes through one
// seam, pagestore.FS. internal/walcrash proves the contract with one
// crash oracle, an enumerator that reopens every state a power cut could
// leave behind a recorded run, from the creation of its data dir on; a
// kill -9 keeps the page cache, so its states are among them.
//
// The filter is also served over the wire: internal/server and
// cmd/ufilterd host a registry of named views behind an HTTP/JSON
// gateway with a bounded concurrency limiter in front of the parallel
// apply pipeline, live per-view statistics and Prometheus-style
// metrics. Result and every verdict enum marshal to stable JSON (the
// enum spellings are exactly their String forms), so the CLI's -json
// output and the daemon's responses are one format.
//
// Observability contract. Instrumentation (internal/obs) costs nothing
// when absent: stage spans record only when a trace rides the
// context.Context handed to Check or Apply (obs.WithTrace), and a nil
// trace is never consulted, so an untraced call skips even the clock
// reads. The daemon records
// latency histograms for every request but samples span traces
// (1-in-64 checks, 1-in-8 applies; batches and the X-UFilter-Trace
// header always); the benchmark in bench/ reports what tracing costs
// as obs.trace_overhead_fraction.
package repro

import (
	"repro/internal/relational"
	"repro/internal/ufilter"
)

// Filter is the compiled U-Filter pipeline for one view over one
// database. See internal/ufilter for the full API.
type Filter = ufilter.Filter

// Result reports a checked or applied update's outcome.
type Result = ufilter.Result

// BatchResult pairs one update of a Filter.CheckBatch call with its
// verdict or per-update error.
type BatchResult = ufilter.BatchResult

// CacheStats snapshots the plan cache's hit/miss counters; see
// Filter.CacheStats.
type CacheStats = ufilter.CacheStats

// Strategy selects the data-driven update-point checking approach.
type Strategy = ufilter.Strategy

// Update-point strategies (Section 6.2 of the paper).
const (
	StrategyHybrid   = ufilter.StrategyHybrid
	StrategyOutside  = ufilter.StrategyOutside
	StrategyInternal = ufilter.StrategyInternal
)

// Outcome is the STAR classification of Fig. 6.
type Outcome = ufilter.Outcome

// STAR classification outcomes.
const (
	OutcomeInvalid        = ufilter.OutcomeInvalid
	OutcomeUntranslatable = ufilter.OutcomeUntranslatable
	OutcomeConditional    = ufilter.OutcomeConditional
	OutcomeUnconditional  = ufilter.OutcomeUnconditional
)

// Step identifies the U-Filter step that produced a rejection.
type Step = ufilter.Step

// Pipeline steps.
const (
	StepNone       = ufilter.StepNone
	StepValidation = ufilter.StepValidation
	StepSTAR       = ufilter.StepSTAR
	StepData       = ufilter.StepData
)

// Condition is the side condition attached to a conditionally
// translatable update.
type Condition = ufilter.Condition

// StarVerdict is the STAR checking procedure's answer for one
// operation.
type StarVerdict = ufilter.StarVerdict

// Stats is a read-only snapshot of a filter's cache, executor and
// database counters; see Filter.Stats.
type Stats = ufilter.Stats

// UpdatePlan is the compile-once artifact of the pipeline: an update
// template's resolved operations, STAR verdicts, shared-check list and
// parameterized probe statements. Obtain one with Filter.Prepare and
// execute it with Filter.Execute.
type UpdatePlan = ufilter.UpdatePlan

// ParseStrategy maps a strategy name ("hybrid", "outside", "internal")
// to its value; the empty string selects StrategyHybrid.
func ParseStrategy(name string) (Strategy, error) {
	return ufilter.ParseStrategy(name)
}

// NewFilter parses a view query, builds and STAR-marks its Annotated
// Schema Graphs over the database, and returns a ready filter.
func NewFilter(viewQuery string, db relational.Engine) (*Filter, error) {
	return ufilter.New(viewQuery, db)
}
