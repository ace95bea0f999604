// Command ufilter checks a view update through the U-Filter pipeline
// against one of the built-in datasets and prints the classification,
// the probe queries and the translated SQL.
//
// Usage:
//
//	ufilter -dataset book -update u9
//	ufilter -dataset book -update u9 -prepare
//	ufilter -dataset book -update-file my_update.xq -apply
//	ufilter -dataset tpch -view vfail:region -update-text 'FOR $t IN ... UPDATE $t { DELETE $t }'
//	echo 'FOR ...' | ufilter -dataset psd -apply
//	cat updates.xq | ufilter -dataset book -batch -workers 8 -stats
//	cat updates.xq | ufilter -dataset book -batch -data
//	cat updates.xq | ufilter -dataset book -batch -json | jq .result.accepted
//
// Batch mode (-batch) reads any number of updates from stdin — each
// terminated by a line containing only ";" — fans them across a worker
// pool, and prints one verdict line per update plus, with -stats, the
// decision-cache hit rate. Batch mode runs the schema-level checks
// (Steps 1+2); with -data it additionally runs Step 3's read-only
// probes against one database snapshot pinned for the whole batch, so
// every verdict reflects the same point-in-time state.
//
// The -json flag switches both single and batch modes to one JSON
// object per line, using the same stable encoding the ufilterd daemon
// serves, so shell pipelines and the daemon's smoke tests consume one
// format.
//
// Datasets: book (the paper's running example, Figs. 1-4/10),
// tpch (the Section 7.2 evaluation substrate), psd (the Section 7.3
// protein database). For tpch, -view selects vsuccess (default),
// vlinear, vbush, or vfail:<relation>.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	repro "repro"
	"repro/internal/bookdb"
	"repro/internal/obs"
	"repro/internal/relational"
	"repro/internal/server"
)

func main() {
	dataset := flag.String("dataset", "book", "built-in dataset: book, tpch, psd")
	viewName := flag.String("view", "", "view for tpch: vsuccess, vlinear, vbush, vfail:<relation>")
	updateName := flag.String("update", "", "named update for the book dataset: u1..u13")
	updateFile := flag.String("update-file", "", "file containing the update query")
	updateText := flag.String("update-text", "", "inline update query")
	apply := flag.Bool("apply", false, "run the full pipeline and execute the translation (default: schema checks only)")
	prepare := flag.Bool("prepare", false, "dry-run: compile the update into an UpdatePlan and print it without executing")
	strategy := flag.String("strategy", "hybrid", "data-driven strategy: hybrid, outside, internal")
	marks := flag.Bool("marks", false, "print the STAR (UPoint|UContext) marks and exit")
	mb := flag.Int("mb", 1, "tpch dataset size (nominal MB)")
	batch := flag.Bool("batch", false, `check many updates from stdin (";" line separates updates)`)
	batchData := flag.Bool("data", false, "with -batch: extend the schema checks with Step 3's read-only data probes against ONE pinned snapshot (parity with ufilterd's check-batch \"data\":true)")
	workers := flag.Int("workers", 0, "batch worker pool size (0 = GOMAXPROCS)")
	stats := flag.Bool("stats", false, "after a batch, print decision-cache statistics")
	snapshotStats := flag.Bool("snapshot-stats", false, "after the run, print MVCC version-chain depth and reclaim counters (retention-leak debugging)")
	timing := flag.Bool("timing", false, "after a single check/apply, print the per-stage latency breakdown (parse, compile, STAR, probes, translate, execute, commit)")
	jsonOut := flag.Bool("json", false, "emit results as JSON (one object per update) — the same encoding ufilterd serves")
	flag.Parse()

	db, viewQuery, err := buildDataset(*dataset, *viewName, *mb)
	if err != nil {
		fail(err)
	}
	f, err := repro.NewFilter(viewQuery, db)
	if err != nil {
		fail(err)
	}
	switch strings.ToLower(*strategy) {
	case "hybrid":
		f.Strategy = repro.StrategyHybrid
	case "outside":
		f.Strategy = repro.StrategyOutside
	case "internal":
		f.Strategy = repro.StrategyInternal
	default:
		fail(fmt.Errorf("unknown strategy %q", *strategy))
	}

	if *batch {
		if *apply {
			fail(fmt.Errorf("-batch never executes translations and cannot be combined with -apply (use -data for the snapshot-pinned data check)"))
		}
		if *marks {
			fail(fmt.Errorf("-batch reads updates from stdin and cannot be combined with -marks"))
		}
		code := runBatch(f, os.Stdin, *workers, *batchData, *stats, *jsonOut)
		if *snapshotStats {
			printSnapshotStats(f, *jsonOut)
		}
		os.Exit(code)
	}

	if *marks {
		fmt.Print(f.Marks.MarkString())
		return
	}

	update, err := loadUpdate(*dataset, *updateName, *updateFile, *updateText)
	if err != nil {
		fail(err)
	}

	if *prepare {
		if *apply {
			fail(fmt.Errorf("-prepare is a dry run and cannot be combined with -apply"))
		}
		p, err := f.Prepare(update)
		if err != nil {
			fail(err)
		}
		printPlan(p)
		if p.Verdict == nil || !p.Verdict.Accepted {
			os.Exit(2)
		}
		return
	}

	var res *repro.Result
	var tr *obs.Trace
	ctx := context.Background()
	if *timing {
		// Thread a trace through the pipeline so every stage records a
		// span; untimed runs pass a bare context and pay nothing.
		op := "check"
		if *apply {
			op = "apply"
		}
		tr = obs.StartTrace(op)
		ctx = obs.WithTrace(ctx, tr)
	}
	if *apply {
		res, err = f.Apply(ctx, update)
	} else {
		res, err = f.Check(ctx, update)
	}
	tr.Finish()
	if err != nil {
		fail(err)
	}
	if *jsonOut {
		printJSON(res)
	} else {
		printResult(res, *apply)
	}
	if tr != nil {
		printTiming(tr.Summary(), *jsonOut)
	}
	if *snapshotStats {
		printSnapshotStats(f, *jsonOut)
	}
	if !res.Accepted {
		os.Exit(2)
	}
}

// printTiming renders the per-stage span breakdown of a timed run: one
// line per pipeline stage with its offset from the request start, its
// duration, and its share of the end-to-end latency.
func printTiming(ts obs.TraceSummary, jsonOut bool) {
	if jsonOut {
		printJSON(map[string]any{"timing": ts})
		return
	}
	total := time.Duration(ts.TotalNs)
	fmt.Printf("timing:    %s total %s\n", ts.Op, total)
	var accounted int64
	for _, s := range ts.Spans {
		pct := 0.0
		if ts.TotalNs > 0 {
			pct = 100 * float64(s.DurNs) / float64(ts.TotalNs)
		}
		fmt.Printf("  %-16s +%-12s %-12s %5.1f%%\n",
			s.Stage, time.Duration(s.StartNs), time.Duration(s.DurNs), pct)
		accounted += s.DurNs
	}
	if rest := ts.TotalNs - accounted; rest > 0 && ts.TotalNs > 0 {
		fmt.Printf("  %-16s %-13s %-12s %5.1f%%\n",
			"(untracked)", "", time.Duration(rest), 100*float64(rest)/float64(ts.TotalNs))
	}
}

// printSnapshotStats reports the MVCC version store's shape after a
// run: chain depth and stored-version counts expose retention leaks
// (a forgotten snapshot pins history and chains keep growing), the
// reclaim counters show whether the reclaimer is keeping up.
func printSnapshotStats(f *repro.Filter, jsonOut bool) {
	st := f.Exec.DB.Stats()
	snap := f.Exec.DB.OpenSnapshot()
	vs := snap.VersionStats()
	snap.Close()
	if jsonOut {
		printJSON(map[string]any{"versions": vs, "database": st})
		return
	}
	fmt.Printf("mvcc: live-rows=%d versions=%d max-chain-depth=%d commit-seq=%d\n",
		vs.LiveRows, vs.Versions, vs.MaxChainDepth, st.CommitSeq)
	fmt.Printf("mvcc: snapshots active=%d opened=%d; reclaimed=%d versions in %d passes\n",
		st.SnapshotsActive, st.SnapshotsOpened, st.VersionsReclaimed, st.Reclaims)
}

// printJSON emits one value in the shared wire encoding (the same the
// ufilterd daemon serves), one object per line for shell pipelines.
func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		fail(err)
	}
}

func buildDataset(dataset, viewName string, mb int) (*relational.Database, string, error) {
	return server.BuildDataset(server.ViewConfig{Dataset: dataset, TPCHView: viewName, MB: mb})
}

func loadUpdate(dataset, name, file, text string) (string, error) {
	switch {
	case name != "":
		if !strings.EqualFold(dataset, "book") {
			return "", fmt.Errorf("-update names refer to the book dataset's u1..u13")
		}
		for _, u := range bookdb.AllUpdates() {
			if strings.EqualFold(u.Name, name) {
				return u.Text, nil
			}
		}
		return "", fmt.Errorf("unknown update %q (want u1..u13)", name)
	case file != "":
		data, err := os.ReadFile(file)
		if err != nil {
			return "", err
		}
		return string(data), nil
	case text != "":
		return text, nil
	default:
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			return "", err
		}
		if len(strings.TrimSpace(string(data))) == 0 {
			return "", fmt.Errorf("no update given: use -update, -update-file, -update-text or stdin")
		}
		return string(data), nil
	}
}

// printPlan renders a compiled UpdatePlan: the exemplar's schema
// verdict, the literal and content slots the execute-many path binds,
// and per-op STAR verdicts, parameterized probe templates and
// shared-part checks. Nothing is executed — this is the compile half of
// compile-once/execute-many.
func printPlan(p *repro.UpdatePlan) {
	fmt.Printf("mode:      prepared (compile only, nothing executed)\n")
	fmt.Printf("template:  %d ops, %d literal slots, %d content slots\n", len(p.Ops), len(p.Slots), len(p.ContentSlots))
	if p.Verdict != nil {
		fmt.Printf("accepted:  %v\n", p.Verdict.Accepted)
		fmt.Printf("outcome:   %s\n", p.Verdict.Outcome)
		if p.Verdict.Reason != "" {
			fmt.Printf("reason:    %s\n", p.Verdict.Reason)
		}
		for _, c := range p.Verdict.Conditions {
			fmt.Printf("condition: %s\n", c)
		}
	}
	for i, s := range p.Slots {
		fmt.Printf("slot ?%d:   %s %s <literal>\n", i+1, s.Leaf.RelAttr(), s.Op)
	}
	for i, s := range p.ContentSlots {
		fmt.Printf("content %d: op %d <%s> -> %s %s", i+1, s.Op, s.Leaf.Parent.Name, s.Leaf.RelAttr(), s.Leaf.Type)
		if s.Leaf.NotNull {
			fmt.Print(" NOT NULL")
		}
		for _, chk := range s.Leaf.Checks {
			fmt.Printf(" CHECK(%s)", chk)
		}
		fmt.Println()
	}
	for i := range p.Ops {
		po := &p.Ops[i]
		for _, v := range po.Verdicts {
			fmt.Printf("op %d star: %s\n", i, v)
		}
		if po.Probe != nil {
			fmt.Printf("op %d probe: %s\n", i, po.Probe.String())
		}
		for _, chk := range po.SharedChecks {
			fmt.Printf("op %d shared: %s must already hold the key %v the content supplies\n", i, chk.Rel, chk.KeyCols)
		}
	}
}

func printResult(res *repro.Result, applied bool) {
	mode := "checked (steps 1-2)"
	if applied {
		mode = "applied (steps 1-3 + translation)"
	}
	fmt.Printf("mode:      %s\n", mode)
	fmt.Printf("accepted:  %v\n", res.Accepted)
	fmt.Printf("outcome:   %s\n", res.Outcome)
	if res.RejectedAt != 0 {
		fmt.Printf("rejected:  step %s\n", res.RejectedAt)
	}
	if res.Reason != "" {
		fmt.Printf("reason:    %s\n", res.Reason)
	}
	for _, c := range res.Conditions {
		fmt.Printf("condition: %s\n", c)
	}
	for _, p := range res.Probes {
		fmt.Printf("probe:     %s\n", p)
	}
	for _, s := range res.SQL {
		fmt.Printf("sql:       %s\n", s)
	}
	for _, w := range res.Warnings {
		fmt.Printf("warning:   %s\n", w)
	}
	if applied {
		fmt.Printf("rows:      %d\n", res.RowsAffected)
	}
}

// runBatch reads ";"-separated updates from r, checks them through the
// worker pool — the schema-level Steps 1+2, or with data=true the
// snapshot-pinned data check (Steps 1+2 plus Step 3's read-only probes
// against ONE snapshot pinned for the whole batch, the CLI twin of
// ufilterd's check-batch "data":true) — prints one line per update
// (JSON objects with -json) and returns the process exit code (2 when
// any update was rejected or failed to parse).
func runBatch(f *repro.Filter, r io.Reader, workers int, data, stats, jsonOut bool) int {
	updates, err := readBatch(r)
	if err != nil {
		fail(err)
	}
	if len(updates) == 0 {
		fail(fmt.Errorf("batch mode: no updates on stdin (separate updates with a line containing only %q)", ";"))
	}
	var out []repro.BatchResult
	if data {
		snap := f.Snapshot()
		out = f.CheckBatchDataAt(snap, updates, workers)
		snap.Close()
	} else {
		out = f.CheckBatch(updates, workers)
	}
	exit := 0
	for _, br := range out {
		if jsonOut {
			printJSON(br)
		}
		switch {
		case br.Err != nil:
			if !jsonOut {
				fmt.Printf("[%d] error: %v\n", br.Index, br.Err)
			}
			exit = 2
		case br.Result.Accepted:
			if !jsonOut {
				fmt.Printf("[%d] accepted outcome=%s\n", br.Index, br.Result.Outcome)
			}
		default:
			if !jsonOut {
				fmt.Printf("[%d] rejected step=%s outcome=%s reason=%s\n",
					br.Index, br.Result.RejectedAt, br.Result.Outcome, br.Result.Reason)
			}
			exit = 2
		}
	}
	if stats {
		st := f.CacheStats()
		if jsonOut {
			printJSON(map[string]any{"cache": st, "hit_rate": st.HitRate()})
		} else {
			fmt.Printf("cache: hits=%d misses=%d hit-rate=%.1f%% templates=%d\n",
				st.Hits, st.Misses, 100*st.HitRate(), st.TemplateEntries)
		}
	}
	return exit
}

// readBatch splits the input into updates on lines containing only ";".
func readBatch(r io.Reader) ([]string, error) {
	var updates []string
	var cur strings.Builder
	flush := func() {
		if strings.TrimSpace(cur.String()) != "" {
			updates = append(updates, cur.String())
		}
		cur.Reset()
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == ";" {
			flush()
			continue
		}
		cur.WriteString(line)
		cur.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	return updates, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ufilter:", err)
	os.Exit(1)
}
