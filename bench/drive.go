package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/relational"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/sqlexec"
	"repro/internal/ufilter"
	"repro/internal/xqparse"
)

// The layer-drive pass replays one generated stream, on one goroutine,
// through each layer's public functions, one rung at a time, each rung
// on its own freshly built and identically seeded stack. Every call is
// wrapped in a bench-owned span; the spans give the [drive] metrics and
// are written to <out>/<workload>.spans.json. Counts (fsyncs, probes,
// cross-shard commits) repeat exactly for a seed: one goroutine, no
// timers, no background checkpointer.

// driveStack is the daemon's stack built in the bench process through
// the registry, which calls server.BuildDataset, OpenWAL or shard.New,
// and ufilter.New the same way the daemon does.
type driveStack struct {
	reg     *server.Registry
	filters map[string]*ufilter.Filter
	eng     relational.Engine // the "tpch" view's engine
	sdb     *shard.DB         // the same, when sharded
}

func buildDriveStack(w *workload, dir string) (*driveStack, error) {
	if w.Shards > 1 && runtime.GOMAXPROCS(0) <= w.Shards {
		// As cmd/ufilterd does at boot: per-shard WAL flushes only
		// overlap when every in-flight fsync's goroutine can get a
		// scheduler slot the moment its syscall returns.
		runtime.GOMAXPROCS(w.Shards + 1)
	}
	reg := server.NewRegistry()
	if w.Durable {
		reg.DataDir = dir
	}
	reg.DefaultShards = w.Shards
	reg.WALOptions.PageCacheBytes = w.PageCacheBytes
	ds := &driveStack{reg: reg, filters: make(map[string]*ufilter.Filter)}
	for _, vc := range w.Views {
		v, err := reg.Add(vc)
		if err != nil {
			return nil, err
		}
		ds.filters[vc.Name] = v.Filter
	}
	ds.eng = ds.filters["tpch"].Exec.DB
	ds.sdb, _ = ds.eng.(*shard.DB)
	return ds, nil
}

func (ds *driveStack) close() error { return ds.reg.CloseWALs() }

func lineitemValues(k key) map[string]relational.Value {
	return map[string]relational.Value{
		"l_orderkey":   relational.Int_(k.Order),
		"l_linenumber": relational.Int_(k.Line),
		"l_quantity":   relational.Float_(7),
	}
}

var lineitemPK = []string{"l_orderkey", "l_linenumber"}

func pkValues(k key) []relational.Value {
	return []relational.Value{relational.Int_(k.Order), relational.Int_(k.Line)}
}

// placement finds each region's shard the way the wire harness does:
// commit one lineitem under an order of the region, see which shard's
// sequence moved, delete it again. Every rung does this first, so the
// stacks stay identical.
func (ds *driveStack) placement() ([]int, error) {
	if ds.sdb == nil {
		return nil, nil
	}
	seqs := func() []uint64 {
		var out []uint64
		for _, s := range ds.eng.ShardStats() {
			out = append(out, s.CommitSeq)
		}
		return out
	}
	out := make([]int, 5)
	for region := range out {
		k := key{int64(region), 900}
		before := seqs()
		t := ds.eng.BeginTxn()
		if _, err := t.Insert("lineitem", lineitemValues(k)); err != nil {
			return nil, err
		}
		if err := t.Commit(); err != nil {
			return nil, err
		}
		out[region] = -1
		for s, v := range seqs() {
			if v > before[s] {
				out[region] = s
			}
		}
		if out[region] < 0 {
			return nil, fmt.Errorf("placement: no shard committed the probe for region %d", region)
		}
		t = ds.eng.BeginTxn()
		ids, err := t.LookupEqual("lineitem", lineitemPK, pkValues(k))
		if err != nil || len(ids) != 1 {
			return nil, fmt.Errorf("placement: probe row for region %d not found: %v", region, err)
		}
		if _, err := t.Delete("lineitem", ids[0]); err != nil {
			return nil, err
		}
		if err := t.Commit(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// drivePass runs the four rungs and records the [drive] metrics.
func (e *env) drivePass(w *workload, seed int64, res *runResult) error {
	dir, err := os.MkdirTemp(e.workDir, "drive-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	tr := newTracer()
	var counts driveCounts
	rungs := []struct {
		name string
		run  func(*tracer, *driveStack, []request, *driveCounts) error
	}{
		{"server", serverRung}, {"plan", planRung}, {"sqlexec", sqlexecRung}, {"relational", relationalRung},
	}
	for _, rung := range rungs {
		ds, err := buildDriveStack(w, filepath.Join(dir, rung.name))
		if err != nil {
			return fmt.Errorf("%s rung: build stack: %w", rung.name, err)
		}
		placement, err := ds.placement()
		if err == nil {
			gen := newGenerator(w, seed, 0, 1, placement)
			reqs := make([]request, e.sizes.driveOps)
			for i := range reqs {
				reqs[i] = gen.next()
			}
			err = rung.run(tr, ds, reqs, &counts)
		}
		if cerr := ds.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("%s rung: %w", rung.name, err)
		}
	}
	if len(counts.wrong) > 0 {
		res.Failed += len(counts.wrong)
		res.problem("layer-drive pass: %d wrong results, first: %s", len(counts.wrong), counts.wrong[0])
	}
	res.Attempted += 4 * e.sizes.driveOps

	m := spanMeans(tr.spans)
	dur := func(name string) float64 { return m[name].DurUs }
	add := func(name string, v float64, n int) { res.add(name, "us", v, n) }
	serverMean, serverN := 0.0, 0
	for _, c := range classNames {
		s := m["server."+c]
		serverMean += s.DurUs * float64(s.Count)
		serverN += s.Count
	}
	add("server.self_us", serverMean/float64(max(serverN, 1))-dur("plan.request"), serverN)
	add("xqparse.parse_us", dur("xqparse.parse"), m["xqparse.parse"].Count)
	add("plan.cache_lookup_us", dur("plan.cache_lookup"), m["plan.cache_lookup"].Count)
	add("plan.compile_us", dur("plan.compile"), m["plan.compile"].Count)
	add("plan.bind_us", dur("plan.bind"), m["plan.bind"].Count)
	add("plan.verdict_us", dur("plan.verdict"), m["plan.verdict"].Count)
	add("plan.execute_self_us", dur("plan.execute")-dur("sqlexec.apply"), m["plan.execute"].Count)
	add("sqlexec.probe_us", dur("sqlexec.probe"), m["sqlexec.probe"].Count)
	add("sqlexec.dml_us", dur("sqlexec.dml")-dur("relational.write"), m["sqlexec.dml"].Count)
	add("relational.begin_us", dur("relational.begin"), m["relational.begin"].Count)
	add("relational.write_us", dur("relational.write"), m["relational.write"].Count)
	commitSum, commitN := 0.0, 0
	for _, name := range []string{"relational.commit", "shard.commit_single", "shard.commit_cross"} {
		commitSum += m[name].DurUs * float64(m[name].Count)
		commitN += m[name].Count
	}
	add("relational.commit_us", commitSum/float64(max(commitN, 1)), commitN)
	add("relational.snapshot_read_us", dur("relational.read_warm"), m["relational.read_warm"].Count)
	add("shard.commit_single_us", dur("shard.commit_single"), m["shard.commit_single"].Count)
	add("shard.commit_cross_us", dur("shard.commit_cross"), m["shard.commit_cross"].Count)
	add("pagestore.fault_us", dur("relational.read_cold")-dur("relational.read_warm"), m["relational.read_cold"].Count)
	res.add("shard.cross_commits", "count", float64(counts.crossCommits), 0)
	res.add("shard.xlog_fsyncs_per_cross", "1/commit", float64(counts.xlogFsyncs)/float64(max(counts.crossCommits, 1)), 0)
	res.add("drive.rows_scanned_per_op", "1/op", float64(counts.rowsScanned)/float64(e.sizes.driveOps), 0)
	res.add("drive.index_probes_per_op", "1/op", float64(counts.indexProbes)/float64(e.sizes.driveOps), 0)
	res.add("drive.fsyncs_per_apply", "1/apply", float64(counts.fsyncs)/float64(max(counts.accepted, 1)), 0)

	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return err
	}
	return writeSpans(filepath.Join(e.outDir, w.Name+".spans.json"), tr.spans)
}

// driveCounts are the exact counts the drive pass reports, and the
// results that did not match the generator's expectation.
type driveCounts struct {
	rowsScanned, indexProbes, fsyncs, accepted int64 // plan rung
	crossCommits, xlogFsyncs                   int64 // relational rung
	wrong                                      []string
}

func (c *driveCounts) check(rung string, u *update, accepted bool, rejectedAt string) {
	if accepted != u.expect.Accepted || (rejectedAt != "" && rejectedAt != u.expect.RejectedAt) {
		c.wrong = append(c.wrong, fmt.Sprintf("%s rung: %v key %v: accepted=%v rejected_at=%s, want %+v",
			rung, u.op, u.key, accepted, rejectedAt, u.expect))
	}
}

// serverRung sends every request over loopback HTTP to Server.Handler.
func serverRung(tr *tracer, ds *driveStack, reqs []request, counts *driveCounts) error {
	srv := server.New(ds.reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1) // one send: Serve's return
	go func() { served <- srv.Serve() }()
	ld := newLoader("http://" + addr)
	for i := range reqs {
		tr.nextReq()
		tr.begin("server." + classNames[reqs[i].class])
		_, reason, _ := ld.do(&reqs[i], &loadResult{})
		tr.end()
		if reason != "" {
			counts.wrong = append(counts.wrong, "server rung: "+reason)
		}
	}
	ld.close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	return <-served
}

// plans caches one compiled plan per reusable template of a view, as
// the daemon's plan cache would.
type plans map[string]*ufilter.UpdatePlan

// planFor parses an update and finds or compiles its plan under the
// named spans.
func (ps plans) planFor(tr *tracer, f *ufilter.Filter, u *update) (*xqparse.UpdateQuery, *ufilter.UpdatePlan, error) {
	tr.begin("xqparse.parse")
	q, err := xqparse.ParseUpdate(u.text)
	tr.end()
	if err != nil {
		return nil, nil, err
	}
	if p := ps[u.template]; p != nil {
		return q, p, nil
	}
	tr.begin("plan.compile")
	p, err := f.Compile(q)
	tr.end()
	if err == nil && u.template != "" {
		ps[u.template] = p
	}
	return q, p, err
}

// planRung drives the plan layer's public functions: parse then
// CheckParsed for checks (CheckDataAt on one pinned snapshot for data
// checks), parse, Compile, BindArgs, Verdict and Execute for single
// applies, ApplyBatch for batches.
func planRung(tr *tracer, ds *driveStack, reqs []request, counts *driveCounts) error {
	cache := make(plans)
	tpchFilter := ds.filters["tpch"]
	exec0, db0 := tpchFilter.Exec.Stats(), ds.eng.Stats()
	for i := range reqs {
		req := &reqs[i]
		f := ds.filters[req.view]
		tr.nextReq()
		tr.begin("plan.request")
		switch {
		case req.data:
			tr.begin("relational.snapshot_open")
			snap := f.Snapshot()
			tr.end()
			for j := range req.updates {
				u := &req.updates[j]
				tr.begin("plan.check_data")
				r, err := f.CheckDataAt(snap, u.text)
				tr.end()
				if err != nil {
					snap.Close()
					return err
				}
				counts.check("plan", u, r.Accepted, r.RejectedAt.String())
			}
			snap.Close()
		case req.class == clsCheck:
			u := &req.updates[0]
			tr.begin("xqparse.parse")
			q, err := xqparse.ParseUpdate(u.text)
			tr.end()
			if err != nil {
				return err
			}
			hits := f.CacheStats().Hits
			tr.begin("plan.check_miss")
			r, err := f.CheckParsed(q)
			tr.end()
			if err != nil {
				return err
			}
			if f.CacheStats().Hits > hits {
				tr.spans[len(tr.spans)-1].Name = "plan.cache_lookup"
			}
			counts.check("plan", u, r.Accepted, r.RejectedAt.String())
		case req.class == clsBatch:
			texts := make([]string, len(req.updates))
			for j, u := range req.updates {
				texts[j] = u.text
			}
			tr.begin("plan.apply_batch")
			out := f.ApplyBatch(texts)
			tr.end()
			for j, br := range out {
				if br.Err != nil {
					return br.Err
				}
				counts.check("plan", &req.updates[j], br.Result.Accepted, br.Result.RejectedAt.String())
				if br.Result.Accepted {
					counts.accepted++
				}
			}
		default:
			u := &req.updates[0]
			q, p, err := cache.planFor(tr, f, u)
			if err != nil {
				return err
			}
			tr.begin("plan.bind")
			args := p.BindArgs(q)
			tr.end()
			tr.begin("plan.verdict")
			r, err := f.Verdict(p, args)
			tr.end()
			if err == nil && r.Accepted {
				tr.begin("plan.execute")
				r, err = f.Execute(p, args)
				tr.end()
			}
			if err != nil {
				return err
			}
			counts.check("plan", u, r.Accepted, r.RejectedAt.String())
			if r.Accepted {
				counts.accepted++
			}
		}
		tr.end()
	}
	exec1, db1 := tpchFilter.Exec.Stats(), ds.eng.Stats()
	counts.rowsScanned = exec1.RowsScanned - exec0.RowsScanned
	counts.indexProbes = exec1.IndexProbes - exec0.IndexProbes
	counts.fsyncs = db1.Fsyncs - db0.Fsyncs
	return nil
}

// sqlexecRung drives the SQL executor under the plan layer: each
// update's prepared context probe against a pinned snapshot, then for
// applies the DML statement inside BeginTxn ... Commit.
func sqlexecRung(tr *tracer, ds *driveStack, reqs []request, counts *driveCounts) error {
	f := ds.filters["tpch"]
	cache := make(plans)
	quiet := &tracer{t0: tr.t0} // parse and compile belong to the plan rung
	for i := range reqs {
		req := &reqs[i]
		if req.view != "tpch" || (req.class == clsCheck && !req.data) {
			continue // schema-level checks never reach the SQL executor
		}
		// Parsing and compiling belong to the plan rung: done before the
		// request's span opens.
		type probe struct {
			stmt *sqlexec.Stmt
			args []relational.Value
		}
		probes := make([]probe, len(req.updates))
		for j := range req.updates {
			q, p, err := cache.planFor(quiet, f, &req.updates[j])
			if err != nil {
				return err
			}
			if len(p.Ops) > 0 && p.Ops[0].Probe != nil {
				// The executor hands its probes the literals coerced to
				// their slots' column types; do the same.
				args := p.BindArgs(q)
				for k := range args {
					if args[k], err = args[k].CoerceTo(p.Slots[k].Leaf.Type); err != nil {
						return err
					}
				}
				probes[j] = probe{p.Ops[0].Probe, args}
			}
		}
		tr.nextReq()
		tr.begin("sqlexec." + classNames[req.class])
		snap := ds.eng.OpenSnapshot()
		for j, pr := range probes {
			if pr.stmt == nil {
				continue
			}
			tr.begin("sqlexec.probe")
			rs, err := pr.stmt.ExecSelectOn(snap, pr.args...)
			tr.end()
			if err != nil {
				snap.Close()
				return err
			}
			// A data check is accepted exactly when its context exists;
			// every apply's context (its order or lineitem) exists.
			if u := &req.updates[j]; req.data {
				counts.check("sqlexec", u, !rs.Empty(), "")
			} else if rs.Empty() {
				counts.wrong = append(counts.wrong, fmt.Sprintf("sqlexec rung: empty context probe for %v", u.key))
			}
		}
		snap.Close()
		if req.class != clsCheck {
			if err := sqlexecWrite(tr, ds, f.Exec, req, counts); err != nil {
				return err
			}
		}
		tr.end()
	}
	return nil
}

// sqlexecWrite runs a request's DML statements in one transaction.
func sqlexecWrite(tr *tracer, ds *driveStack, ex *sqlexec.Executor, req *request, counts *driveCounts) error {
	tr.begin("relational.begin")
	t := ds.eng.BeginTxn()
	tr.end()
	for j := range req.updates {
		u := &req.updates[j]
		var err error
		tr.begin("sqlexec.dml")
		switch u.op {
		case opInsert, opDup:
			_, err = ex.ExecInsert(t, &sqlexec.InsertStmt{Table: "lineitem", Values: lineitemValues(u.key)})
		case opDelete:
			_, err = ex.ExecDelete(t, &sqlexec.DeleteStmt{Table: "lineitem", Where: []sqlexec.Predicate{
				sqlexec.Eq("lineitem", "l_orderkey", relational.Int_(u.key.Order)),
				sqlexec.Eq("lineitem", "l_linenumber", relational.Int_(u.key.Line))}})
		case opWipe:
			_, err = ex.ExecDelete(t, &sqlexec.DeleteStmt{Table: "lineitem", Where: []sqlexec.Predicate{
				sqlexec.Eq("lineitem", "l_orderkey", relational.Int_(u.key.Order))}})
		}
		tr.end()
		counts.check("sqlexec", u, err == nil, "")
		if err != nil {
			return t.Rollback()
		}
	}
	tr.begin("sqlexec.commit")
	err := t.Commit()
	tr.end()
	return err
}

// relationalRung drives the engine (a Database, or a shard group) under
// the SQL executor: point reads through a snapshot, first cold then
// warm, and for applies BeginTxn, Insert or Delete, and CommitShared —
// one shard for a single apply, two for a sharded batch.
func relationalRung(tr *tracer, ds *driveStack, reqs []request, counts *driveCounts) error {
	for i := range reqs {
		req := &reqs[i]
		if req.view != "tpch" || (req.class == clsCheck && !req.data) {
			continue
		}
		tr.nextReq()
		tr.begin("relational.request")
		snap := ds.eng.OpenSnapshot()
		for _, u := range req.updates {
			for _, name := range []string{"relational.read_cold", "relational.read_warm"} {
				tr.begin(name)
				ids, err := snap.LookupEqual("orders", []string{"o_orderkey"}, []relational.Value{relational.Int_(u.key.Order)})
				if err == nil && len(ids) == 1 {
					_, err = snap.Get("orders", ids[0])
				}
				tr.end()
				if err != nil || len(ids) != 1 {
					snap.Close()
					return fmt.Errorf("read order %d: %d rows, %v", u.key.Order, len(ids), err)
				}
			}
		}
		snap.Close()
		if req.class != clsCheck {
			if err := relationalWrite(tr, ds, req, counts); err != nil {
				return err
			}
		}
		tr.end()
	}
	if ds.sdb != nil {
		counts.crossCommits = ds.sdb.CrossCommits()
		counts.xlogFsyncs = ds.sdb.XlogFsyncs()
	}
	return nil
}

// relationalWrite runs a request's row operations in one transaction
// and commits it through CommitShared.
func relationalWrite(tr *tracer, ds *driveStack, req *request, counts *driveCounts) error {
	tr.begin("relational.begin")
	t := ds.eng.BeginTxn()
	tr.end()
	for j := range req.updates {
		u := &req.updates[j]
		var err error
		if u.op == opInsert || u.op == opDup {
			tr.begin("relational.write")
			_, err = t.Insert("lineitem", lineitemValues(u.key))
			tr.end()
		} else {
			cols, vals := lineitemPK, pkValues(u.key)
			if u.op == opWipe {
				cols, vals = cols[:1], vals[:1]
			}
			tr.begin("relational.lookup")
			ids, lerr := t.LookupEqual("lineitem", cols, vals)
			tr.end()
			err = lerr
			for _, id := range ids {
				if err != nil {
					break
				}
				tr.begin("relational.write")
				_, err = t.Delete("lineitem", id)
				tr.end()
			}
			if err == nil && len(ids) == 0 {
				err = fmt.Errorf("no lineitem matches %v", u.key)
			}
		}
		counts.check("relational", u, err == nil, "")
		if err != nil {
			return t.Rollback()
		}
	}
	name := "relational.commit"
	if ds.sdb != nil {
		name = "shard.commit_single"
		if req.class == clsBatch {
			name = "shard.commit_cross"
		}
	}
	tr.begin(name)
	errs := ds.eng.CommitShared([]relational.WriteTxn{t})
	tr.end()
	return errs[0]
}
