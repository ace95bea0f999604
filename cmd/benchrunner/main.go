// Command benchrunner regenerates every table and figure of the
// paper's evaluation (Section 7) and prints the rows/series the paper
// reports. Absolute numbers differ from the paper's Oracle testbed; the
// shapes (who wins, by what factor, where the curves sit) are the
// reproduction target.
//
// Usage:
//
//	benchrunner [-mb N] [-sizes 50,100,...] [-iters N] [-only fig13,...]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	mb := flag.Int("mb", 1, "nominal database size (MB) for Figs. 13 and 14")
	sizesFlag := flag.String("sizes", "50,100,150,200,250,300,350,400,450,500",
		"comma-separated database sizes (MB) for Figs. 15-17")
	iters := flag.Int("iters", 20, "operations per size for Figs. 15-17")
	only := flag.String("only", "", "comma-separated subset: fig12,fig13,fig14,marking,fig15,fig16,fig17,plan,mvcc,write,wal,obs,shard,commit,page")
	planIters := flag.Int("plan-iters", 2000, "iterations for the plan (compile-once/execute-many) benchmark")
	planOut := flag.String("plan-out", "BENCH_plan.json", "file the plan benchmark's JSON is written to")
	mvccIters := flag.Int("mvcc-iters", 2000, "checks per side for the MVCC checks-during-apply benchmark")
	mvccOut := flag.String("mvcc-out", "BENCH_mvcc.json", "file the MVCC benchmark's JSON is written to")
	writeIters := flag.Int("write-iters", 2000, "applies per point for the parallel-write-path benchmark")
	writeOut := flag.String("write-out", "BENCH_write.json", "file the write benchmark's JSON is written to")
	walIters := flag.Int("wal-iters", 1000, "applies per point for the durable-WAL benchmark")
	walOut := flag.String("wal-out", "BENCH_wal.json", "file the WAL benchmark's JSON is written to")
	obsIters := flag.Int("obs-iters", 5000, "operations per workload for the observability-overhead benchmark")
	obsOut := flag.String("obs-out", "BENCH_obs.json", "file the observability benchmark's JSON is written to")
	shardIters := flag.Int("shard-iters", 800, "durable applies per point for the intra-view sharding benchmark")
	shardOut := flag.String("shard-out", "BENCH_shard.json", "file the sharding benchmark's JSON is written to")
	commitIters := flag.Int("commit-iters", 640, "durable commits per point for the pipelined group-commit benchmark")
	commitOut := flag.String("commit-out", "BENCH_commit.json", "file the commit benchmark's JSON is written to")
	pageIters := flag.Int("page-iters", 2000, "point reads per pool budget for the paged-storage benchmark")
	pageOut := flag.String("page-out", "BENCH_page.json", "file the paged-storage benchmark's JSON is written to")
	flag.Parse()

	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		fatal(err)
	}
	want := map[string]bool{}
	if *only != "" {
		for _, s := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToLower(s))] = true
		}
	}
	run := func(name string) bool { return len(want) == 0 || want[name] }

	if run("fig12") {
		printFig12()
	}
	if run("fig13") {
		printFig13(*mb)
	}
	if run("fig14") {
		printFig14(*mb)
	}
	if run("marking") {
		printMarking(*mb)
	}
	if run("fig15") {
		printFig15(sizes, *iters)
	}
	if run("fig16") {
		printFig16(sizes, *iters)
	}
	if run("fig17") {
		printFig17(sizes, *iters)
	}
	if run("plan") {
		printPlanBench(*planIters, *planOut)
	}
	if run("mvcc") {
		printMVCCBench(*mvccIters, *mvccOut)
	}
	if run("write") {
		printWriteBench(*writeIters, *writeOut)
	}
	if run("wal") {
		printWALBench(*walIters, *walOut)
	}
	if run("obs") {
		printObsBench(*obsIters, *obsOut)
	}
	if run("shard") {
		printShardBench(*shardIters, *shardOut)
	}
	if run("commit") {
		printCommitBench(*commitIters, *commitOut)
	}
	if run("page") {
		printPageBench(*pageIters, *pageOut)
	}
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %w", part, err)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchrunner:", err)
	os.Exit(1)
}

func header(title string) {
	fmt.Println()
	fmt.Println("=== " + title + " ===")
}

func printFig12() {
	header("Fig. 12 — Evaluation of W3C Use Cases (view ASG expressiveness)")
	fmt.Printf("%-10s %-9s %s\n", "Query", "Included", "Reason")
	for _, r := range experiments.Fig12() {
		inc := "yes"
		if !r.Included {
			inc = "no"
		}
		fmt.Printf("%-10s %-9s %s\n", r.ID, inc, r.Reason)
	}
}

func printFig13(mb int) {
	header(fmt.Sprintf("Fig. 13 — Translatable view update over Vsuccess (DBsize=%dMB)", mb))
	rows, err := experiments.Fig13(mb, 5)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-10s %14s %14s %12s %10s\n", "Relation", "Update", "With STAR", "Overhead", "RowsDel")
	for _, r := range rows {
		over := float64(r.WithSTAR-r.Update) / float64(r.Update) * 100
		fmt.Printf("%-10s %14v %14v %11.1f%% %10d\n", r.Relation, r.Update, r.WithSTAR, over, r.RowsDeleted)
	}
}

func printFig14(mb int) {
	header(fmt.Sprintf("Fig. 14 — Untranslatable view update over Vfail (DBsize=%dMB)", mb))
	rows, err := experiments.Fig14(mb, 5)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-10s %16s %14s %10s %10s\n", "Relation", "Blind+Rollback", "STAR reject", "Speedup", "RowsTouch")
	for _, r := range rows {
		speedup := float64(r.Blind) / float64(r.STAR)
		fmt.Printf("%-10s %16v %14v %9.0fx %10d\n", r.Relation, r.Blind, r.STAR, speedup, r.RowsTouched)
	}
}

func printMarking(mb int) {
	header("§7.2 — STAR marking procedure cost (compile time, per view)")
	mt, err := experiments.STARMarking(mb)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("Vsuccess: %v\nVfail:    %v\n", mt.Vsuccess, mt.Vfail)
}

func printFig15(sizes []int, iters int) {
	header("Fig. 15 — Internal vs External strategy, insert lineitem into Vlinear")
	rows, err := experiments.Fig15(sizes, iters)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-8s %12s %14s %14s %8s\n", "DB(MB)", "rows", "Internal/op", "External/op", "ratio")
	for _, r := range rows {
		fmt.Printf("%-8d %12d %14v %14v %7.2fx\n", r.MB, r.Rows, r.Internal, r.External,
			float64(r.Internal)/float64(r.External))
	}
}

func printFig16(sizes []int, iters int) {
	header("Fig. 16 — Hybrid vs Outside strategy over Vbush (successful updates)")
	rows, err := experiments.Fig16(sizes, iters)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-8s %14s %14s %8s\n", "DB(MB)", "Hybrid/op", "Outside/op", "ratio")
	for _, r := range rows {
		fmt.Printf("%-8d %14v %14v %7.2fx\n", r.MB, r.Hybrid, r.Outside,
			float64(r.Outside)/float64(r.Hybrid))
	}
}

// printPlanBench runs the compile-once/execute-many benchmark (the
// bound-literal workload: one template, fresh literals per request)
// and records the series as JSON so CI tracks the repo's perf
// trajectory across commits.
func printPlanBench(iters int, outPath string) {
	header("Plan — compile-once/execute-many vs per-request pipeline (bound-literal workload)")
	pb, err := experiments.RunPlanBench(iters)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-28s %14s %12s\n", "Path", "ns/op", "speedup")
	fmt.Printf("%-28s %14d %12s\n", "check uncached", pb.CheckUncachedNsOp, "1.00x")
	fmt.Printf("%-28s %14d %11.2fx\n", "check plan-cached", pb.CheckCachedNsOp, pb.CheckSpeedup)
	fmt.Printf("%-28s %14d %12s\n", "apply uncached", pb.ApplyUncachedNsOp, "1.00x")
	fmt.Printf("%-28s %14d %11.2fx\n", "apply plan-cached filter", pb.ApplyCachedNsOp, pb.ApplyCachedSpeedup)
	fmt.Printf("%-28s %14d %11.2fx\n", "apply prepared Execute", pb.ApplyPlanNsOp, pb.ApplySpeedup)
	if outPath != "" {
		data, err := json.MarshalIndent(pb, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", outPath)
	}
}

// printMVCCBench runs BenchmarkCheckDuringApply's harness — check
// latency percentiles idle vs racing a saturating group-commit writer
// — and records the series as JSON so CI tracks whether the snapshot-
// isolated read path keeps check latency independent of apply load.
func printMVCCBench(iters int, outPath string) {
	header("MVCC — checks during apply (snapshot-isolated read path)")
	mb, err := experiments.RunMVCCBench(iters)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-26s %12s %12s %8s\n", "Path", "p50 ns", "p99 ns", "ratio")
	fmt.Printf("%-26s %12d %12d %8s\n", "check idle", mb.CheckIdleP50Ns, mb.CheckIdleP99Ns, "")
	fmt.Printf("%-26s %12d %12d %7.2fx\n", "check during apply", mb.CheckBusyP50Ns, mb.CheckBusyP99Ns, mb.CheckP99Ratio)
	fmt.Printf("%-26s %12d %12d %8s\n", "data check idle", mb.DataCheckIdleP50Ns, mb.DataCheckIdleP99Ns, "")
	fmt.Printf("%-26s %12d %12d %7.2fx\n", "data check during apply", mb.DataCheckBusyP50Ns, mb.DataCheckBusyP99Ns, mb.DataCheckP99Ratio)
	fmt.Printf("applies committed during busy side: %d; snapshots opened: %d; versions reclaimed: %d\n",
		mb.AppliesDuringBusy, mb.SnapshotsOpened, mb.VersionsReclaimed)
	if outPath != "" {
		data, err := json.MarshalIndent(mb, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", outPath)
	}
}

// printWriteBench runs the parallel-write-path benchmark — apply
// throughput at 1/2/4/8 writer goroutines on conflict-free vs
// high-conflict keyspaces — and records the series as JSON so CI
// tracks whether independent updates actually commit concurrently.
func printWriteBench(iters int, outPath string) {
	header("Write — parallel apply path (MVCC conflicts + group commit)")
	wb, err := experiments.RunWriteBench(iters, runtime.GOMAXPROCS(0))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-8s %16s %16s %12s %12s %10s %10s\n",
		"Writers", "free ops/s", "contended ops/s", "accepted", "409s", "conflicts", "retries")
	for _, p := range wb.Points {
		fmt.Printf("%-8d %16.0f %16.0f %12d %12d %10d %10d\n",
			p.Writers, p.ConflictFreeOpsPerSec, p.HighConflictOpsPerSec,
			p.Accepted, p.Conflict409, p.Conflicts, p.Retries)
	}
	fmt.Printf("conflict-free speedup at 8 writers: %.2fx (GOMAXPROCS=%d)\n",
		wb.ConflictFreeSpeedup8x, wb.MaxProcs)
	if outPath != "" {
		data, err := json.MarshalIndent(wb, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", outPath)
	}
}

// printWALBench runs the durable-WAL benchmark — apply throughput in
// memory (no log) vs with a real fsync-per-group write-ahead log,
// plus fsync coalescing and cold recovery time — and records the series
// as JSON so CI tracks the durability tax across commits.
func printWALBench(iters int, outPath string) {
	header("WAL — durable fsync-per-group log vs in-memory (no log)")
	wb, err := experiments.RunWALBench(iters, runtime.GOMAXPROCS(0))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-8s %14s %14s %10s %10s %12s\n",
		"Writers", "mem ops/s", "wal ops/s", "overhead", "fsyncs", "txns/fsync")
	for _, p := range wb.Points {
		fmt.Printf("%-8d %14.0f %14.0f %9.2fx %10d %12.2f\n",
			p.Writers, p.MemOpsPerSec, p.WALOpsPerSec, p.DurabilityOverhead,
			p.Fsyncs, p.TxnsPerFsync)
	}
	fmt.Printf("cold recovery: %v for %d replayed txns + %d checkpoint rows\n",
		time.Duration(wb.RecoveryNs), wb.RecoveryReplayedTxns, wb.RecoveryCheckpointRows)
	if outPath != "" {
		data, err := json.MarshalIndent(wb, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", outPath)
	}
}

// printObsBench runs the observability-overhead benchmark — the full
// per-request instrumentation path (trace + spans + histogram +
// slow-ring offer) against a DetachObs'd baseline on check-only,
// apply-only and mixed 7:1 workloads — and records the table as JSON
// so CI gates the instrumentation tax (mixed must stay under ~5%).
func printObsBench(iters int, outPath string) {
	header("Obs — instrumentation overhead (trace + histograms + slow ring vs detached)")
	ob, err := experiments.RunObsBench(iters)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-10s %14s %14s %10s\n", "Workload", "base ops/s", "obs ops/s", "overhead")
	for _, p := range ob.Points {
		fmt.Printf("%-10s %14.0f %14.0f %9.1f%%\n",
			p.Workload, p.BaseOpsPerSec, p.ObsOpsPerSec, p.OverheadPct)
	}
	if outPath != "" {
		data, err := json.MarshalIndent(ob, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", outPath)
	}
}

// printShardBench runs the intra-view sharding benchmark — durable
// apply throughput at 1/2/4/8 hash-partitioned shards on disjoint and
// cross-shard workloads — and records the series as JSON so CI tracks
// the fsync-overlap speedup (>= 2x at 8 shards) and the shards=1
// parity with the unsharded engine.
func printShardBench(iters int, outPath string) {
	header("Shard — hash-partitioned stores, per-shard WAL fsync overlap")
	sb, err := experiments.RunShardBench(iters, runtime.GOMAXPROCS(0))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-8s %16s %12s %16s\n", "Shards", "disjoint ops/s", "ns/op", "fsync overlap")
	for _, p := range sb.Disjoint {
		fmt.Printf("%-8d %16.0f %12d %15.2fx\n", p.Shards, p.OpsPerSec, p.NsOp, p.FsyncParallelism)
	}
	fmt.Printf("%-8s %16s %12s %16s\n", "Shards", "cross ops/s", "ns/op", "2pc commits")
	for _, p := range sb.Cross {
		fmt.Printf("%-8d %16.0f %12d %16d\n", p.Shards, p.OpsPerSec, p.NsOp, p.CrossCommits)
	}
	fmt.Printf("unsharded baseline: %.0f ops/s; parity at 1 shard: %.2fx; speedup at 8 shards: %.2fx (GOMAXPROCS=%d)\n",
		sb.Baseline, sb.ParityAt1, sb.SpeedupAt8, sb.MaxProcs)
	if outPath != "" {
		data, err := json.MarshalIndent(sb, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", outPath)
	}
}

// printCommitBench runs the stall-free-durability benchmark — durable
// commit throughput and fsyncs paid at 1/8/32 writers, checkpoint pause
// at 1x vs 10x database size with a fixed dirty set, and cold recovery
// over a base image vs a delta chain — and records the table as JSON so
// CI gates fsync coalescing and the O(dirty) pause.
func printCommitBench(iters int, outPath string) {
	header("Commit — the WAL writer stage's group commit + incremental checkpoints")
	cb, err := experiments.RunCommitBench(iters, runtime.GOMAXPROCS(0))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-8s %8s %14s %12s %10s\n", "Writers", "ops", "ops/s", "ns/op", "fsyncs")
	for _, p := range cb.Points {
		fmt.Printf("%-8d %8d %14.0f %12d %10d\n", p.Writers, p.Ops, p.OpsPerSec, p.NsOp, p.Fsyncs)
	}
	for _, p := range cb.Pauses {
		fmt.Printf("checkpoint pause: %6d rows, %d dirty -> %v\n",
			p.Rows, p.DirtyRows, time.Duration(p.PauseNs))
	}
	fmt.Printf("pause ratio 10x/1x: %.2f (O(dirty) target: ~1)\n", cb.PauseRatio)
	for _, p := range cb.Recovery {
		fmt.Printf("cold recovery: %6d rows, chain %d -> %v\n",
			p.Rows, p.ChainLen, time.Duration(p.RecoveryNs))
	}
	if outPath != "" {
		data, err := json.MarshalIndent(cb, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", outPath)
	}
}

// printPageBench runs the paged-checkpoint-storage benchmark —
// checkpoint pause at 1x vs 10x database size with a fixed dirty set,
// lazy vs cold recovery over the page directory, and point-read
// throughput with the buffer pool budgeted at 100/50/10% of the
// dataset — and records the table as JSON so CI gates the
// O(dirty-pages) pause ratio (<= 2) and tracks the beyond-RAM curve.
func printPageBench(iters int, outPath string) {
	header("Page — paged checkpoint storage + buffer pool (O(dirty-pages) pause, lazy recovery)")
	pb, err := experiments.RunPageBench(iters)
	if err != nil {
		fatal(err)
	}
	for _, p := range pb.Pauses {
		fmt.Printf("checkpoint pause: %6d rows, %d dirty -> %v\n",
			p.Rows, p.DirtyRows, time.Duration(p.PauseNs))
	}
	fmt.Printf("pause ratio 10x/1x: %.2f (O(dirty-pages) target: ~1, CI gate <= 2)\n", pb.PauseRatio)
	fmt.Printf("recovery over %d rows / %d pages: lazy open %v, first scan %v (faulted %d pages), cold total %v\n",
		pb.Recovery.Rows, pb.Recovery.PagesTotal,
		time.Duration(pb.Recovery.LazyOpenNs), time.Duration(pb.Recovery.FirstScanNs),
		pb.Recovery.FaultedPages, time.Duration(pb.Recovery.ColdNs))
	fmt.Printf("%-10s %14s %14s %10s %12s\n", "Budget", "reads/s", "ns/op", "hit rate", "evictions")
	for _, p := range pb.Pool {
		fmt.Printf("%9d%% %14.0f %14d %9.1f%% %12d\n",
			p.BudgetPct, p.ReadsPerSec, p.NsOp, p.HitRate*100, p.Evictions)
	}
	if outPath != "" {
		data, err := json.MarshalIndent(pb, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", outPath)
	}
}

func printFig17(sizes []int, iters int) {
	header("Fig. 17 — Hybrid vs Outside over Vlinear, failed cases")
	rows, err := experiments.Fig17(sizes, iters)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-8s %14s %14s %14s %14s %10s %10s\n",
		"DB(MB)", "Hyb-Fail1", "Out-Fail1", "Hyb-Fail2", "Out-Fail2", "Hyb-DML", "Out-DML")
	for _, r := range rows {
		fmt.Printf("%-8d %14v %14v %14v %14v %10d %10d\n",
			r.MB, r.HybridFail1, r.OutsideFail1, r.HybridFail2, r.OutsideFail2, r.HybridStmts, r.OutsideStmts)
	}
}
