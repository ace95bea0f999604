package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/bookdb"
	"repro/internal/server"
	"repro/internal/tpch"
	"repro/internal/ufilter"
)

// TestMain re-execs the test binary as the daemon when
// UFILTERD_TEST_DAEMON=1: main() then parses the child's arguments as
// ufilterd's own flags, so the tests below drive the real command — its
// flags, boot log and exit codes — with no separate build step.
func TestMain(m *testing.M) {
	if os.Getenv("UFILTERD_TEST_DAEMON") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// command is the test binary re-exec'd as ufilterd with args.
func command(ctx context.Context, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "UFILTERD_TEST_DAEMON=1")
	// Should the test binary die first, the daemon must not outlive it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// run runs ufilterd to its exit and returns the exit code and stderr.
// A daemon that serves instead of exiting is killed after 30 s.
func run(t *testing.T, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := command(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// daemon is one running ufilterd child.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port, from the "listening" record

	mu      sync.Mutex
	log     []string      // stderr, one slog record a line
	drained chan struct{} // closed when stderr hit EOF
}

// boot starts ufilterd on an ephemeral port and returns once it has
// logged the bound address and answers /healthz. The test's cleanup
// kills it.
func boot(t *testing.T, args ...string) *daemon {
	t.Helper()
	cmd := command(context.Background(), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	t.Cleanup(d.kill)
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			d.mu.Lock()
			d.log = append(d.log, sc.Text())
			d.mu.Unlock()
			if strings.Contains(sc.Text(), "msg=listening") {
				addr <- attr(sc.Text(), "addr")
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.drained:
		t.Fatalf("ufilterd exited before listening:\n%s", d.line(""))
	case <-time.After(2 * time.Minute):
		t.Fatalf("ufilterd did not listen within 2m:\n%s", d.line(""))
	}
	d.call(t, "/healthz", nil, nil)
	return d
}

// kill is kill -9: SIGKILL, then reap. Killing a reaped daemon is a no-op.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.drained
	_ = d.cmd.Wait()
}

// line returns every stderr record so far that contains substr, one a
// line.
func (d *daemon) line(substr string) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	for _, l := range d.log {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// attr returns the value of key in a slog text record ("" when absent).
func attr(record, key string) string {
	_, v, _ := strings.Cut(record, " "+key+"=")
	v, _, _ = strings.Cut(v, " ")
	return v
}

// do GETs path (POSTs body as JSON when it is non-nil).
func (d *daemon) do(path string, body any) (int, []byte, error) {
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = http.Get(d.base + path)
	} else {
		data, _ := json.Marshal(body)
		resp, err = http.Post(d.base+path, "application/json", bytes.NewReader(data))
	}
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// call is do that must be answered 200; out, when non-nil, receives the
// decoded body.
func (d *daemon) call(t *testing.T, path string, body, out any) []byte {
	t.Helper()
	status, data, err := d.do(path, body)
	if err != nil || status != http.StatusOK {
		t.Fatalf("%s: HTTP %d, %v: %s", path, status, err, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s: %v: %s", path, err, data)
		}
	}
	return data
}

func (d *daemon) stats(t *testing.T, view string) server.ViewStats {
	t.Helper()
	var st server.ViewStats
	d.call(t, "/views/"+view+"/stats", nil, &st)
	return st
}

// metrics fails the test unless /metrics carries every sample prefix.
func (d *daemon) metrics(t *testing.T, samples ...string) {
	t.Helper()
	text := string(d.call(t, "/metrics", nil, nil))
	for _, s := range samples {
		if !strings.Contains(text, "\n"+s) {
			t.Errorf("/metrics has no %s", s)
		}
	}
}

// apply fails the test unless the view accepts the update.
func (d *daemon) apply(t *testing.T, view, update string) {
	t.Helper()
	var res ufilter.Result
	if d.call(t, "/views/"+view+"/apply", map[string]string{"update": update}, &res); !res.Accepted {
		t.Fatalf("apply on %s not accepted: %+v", view, res)
	}
}

// drive is the fixed load on the book view: 8 clients, each sending 24
// checks, 4 snapshot-pinned data check-batches and 4 insert/delete
// apply pairs. Every answer must be 200, 409 (a write conflict whose
// retries ran out) or 429 (shed).
func (d *daemon) drive(t *testing.T) {
	t.Helper()
	var texts []string
	for _, u := range bookdb.AllUpdates() {
		texts = append(texts, u.Text)
	}
	type request struct {
		path string
		body any
	}
	var wg sync.WaitGroup
	for c := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 32 {
				text := texts[(c*31+i)%len(texts)]
				reqs := []request{{"/views/book/check", map[string]string{"update": text}}}
				switch i % 8 {
				case 3:
					batch := []string{text, texts[(c*7+i)%len(texts)]}
					reqs = []request{{"/views/book/check-batch", map[string]any{"updates": batch, "data": true}}}
				case 7:
					ins := fmt.Sprintf(`FOR $book IN document("BookView.xml")/book WHERE $book/title/text() = "Data on the Web"
UPDATE $book { INSERT <review><reviewid>9%02d%04d</reviewid><comment>load</comment></review> }`, c, i)
					reqs = []request{{"/views/book/apply", map[string]string{"update": ins}}, {"/views/book/apply", map[string]string{"update": bookdb.U12}}}
				}
				for _, r := range reqs {
					status, body, err := d.do(r.path, r.body)
					if err != nil || status != http.StatusOK && status != http.StatusConflict && status != http.StatusTooManyRequests {
						t.Errorf("%s: HTTP %d, %v: %s", r.path, status, err, body)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
}

// sums maps every file under dir to the sha256 of its bytes.
func sums(t *testing.T, dir string) map[string][32]byte {
	t.Helper()
	out := make(map[string][32]byte)
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		out[path] = sha256.Sum256(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// writeConfig writes a -config file into a fresh directory.
func writeConfig(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "config.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// reviewInsert inserts review id into "Data on the Web".
func reviewInsert(id int, comment string) string {
	return fmt.Sprintf(`FOR $book IN document("BookView.xml")/book WHERE $book/title/text() = "Data on the Web"
UPDATE $book { INSERT <review><reviewid>%d</reviewid><comment>%s</comment></review> }`, id, comment)
}

// TestDaemonRestartAfterKill9 boots each durable configuration over a
// fresh data dir, drives it, kill -9s it and boots it again over the
// same dir. Every case requires the restart to recover without
// seeding, to serve exactly the rows acknowledged before the kill, and
// to accept an apply; the hooks add what the configuration is for.
func TestDaemonRestartAfterKill9(t *testing.T) {
	cases := []struct {
		name   string
		view   string
		args   []string // beyond -addr and -data-dir
		config string   // -config file body, when the case sizes its dataset
		load   bool     // drive the book view before the kill
		// first runs on the first boot, before its apply; killed between
		// the kill and the restart; restart on the restarted daemon,
		// before its apply.
		first   func(t *testing.T, d *daemon, dir string)
		killed  func(t *testing.T, dir string)
		restart func(t *testing.T, d *daemon, pre, post server.ViewStats)
		// The applies each boot must accept: before the kill (none when
		// empty), so the restart has a logged write to replay, and after
		// the restart.
		before, after string
	}{{
		name: "book",
		view: "book",
		args: []string{"-views", "book"},
		load: true,
		first: func(t *testing.T, d *daemon, dir string) {
			// Every active segment is extended to 4 MiB when it opens,
			// and the view dir is stamped with its format number.
			segs, _ := filepath.Glob(filepath.Join(dir, "book", "wal-*.seg"))
			if len(segs) == 0 {
				t.Fatal("no WAL segment under book/")
			}
			slices.Sort(segs)
			if fi, err := os.Stat(segs[len(segs)-1]); err != nil || fi.Size() != 4<<20 {
				t.Fatalf("newest segment %s: %v %v, want 4194304 bytes", segs[len(segs)-1], err, fi.Size())
			}
			if stamp, err := os.ReadFile(filepath.Join(dir, "book", "FORMAT")); err != nil || !regexp.MustCompile(`^[0-9]+\n?$`).Match(stamp) {
				t.Fatalf("FORMAT stamp %q, %v", stamp, err)
			}
			db := d.stats(t, "book").Filter.Database // recorded, not gated: fsync sharing depends on the disk
			t.Logf("before the kill: group_commits %d, grouped_txns %d, fsyncs_total %d", db.GroupCommits, db.GroupedTxns, db.Fsyncs)
		},
		killed: func(t *testing.T, dir string) {
			// A copy stamped with another format is refused: ufilterd
			// exits non-zero, names the reseed, and changes no byte.
			t.Run("format-999-refused", func(t *testing.T) {
				other := filepath.Join(t.TempDir(), "data")
				if err := os.CopyFS(other, os.DirFS(dir)); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(other, "book", "FORMAT"), []byte("999\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				before := sums(t, other)
				code, stderr := run(t, "-views", "book", "-data-dir", other)
				if want := "reseed: delete " + filepath.Join(other, "book"); code == 0 || !strings.Contains(stderr, want) {
					t.Fatalf("exit %d, stderr %q; want non-zero and %q", code, stderr, want)
				}
				if !maps.Equal(before, sums(t, other)) {
					t.Fatal("the refused data dir changed")
				}
			})
		},
		restart: func(t *testing.T, d *daemon, pre, post server.ViewStats) {
			// The load had finished before the kill, so no write was in
			// flight and the segment's zeroed slack is no torn tail.
			if line := d.line("recovered, seed skipped"); attr(line, "torn_tail") != "false" {
				t.Errorf("restart line %q, want torn_tail=false", line)
			}
			if post.Filter.Database.Fsyncs <= 0 {
				t.Errorf("fsyncs_total %d after recovery", post.Filter.Database.Fsyncs)
			}
			d.metrics(t, `ufilterd_wal_recovery_replayed_txns{view="book"}`, `ufilterd_wal_fsyncs_total{view="book"}`)
		},
		before: reviewInsert(414141, "pre-crash"),
		after:  reviewInsert(424242, "post-crash"),
	}, {
		// A 64 KiB pool is smaller than the book's paged image, so
		// serving faults and evicts pages.
		name: "book-page-cache-64KiB",
		view: "book",
		args: []string{"-views", "book", "-page-cache-bytes", "65536"},
		load: true,
		first: func(t *testing.T, d *daemon, dir string) {
			d.metrics(t, `ufilterd_pages_total{view="book"}`, `ufilterd_pagecache_hits_total{view="book"}`,
				`ufilterd_compaction_pages_written_total{view="book"}`)
		},
		restart: func(t *testing.T, d *daemon, pre, post server.ViewStats) {
			// Recovery reads the live pages and replays the tail: its own
			// log line counts the acknowledged rows too.
			line := d.line("recovered, seed skipped")
			if rows, _ := strconv.Atoi(attr(line, "rows")); rows != pre.RowsTotal {
				t.Errorf("restart line %q, want rows=%d", line, pre.RowsTotal)
			}
			if paged, _ := strconv.Atoi(attr(line, "checkpoint_rows")); paged <= 0 {
				t.Errorf("restart line %q read no row from pages", line)
			}
			if post.Filter.Database.PagesTotal <= 0 {
				t.Errorf("pages_total %d after recovery", post.Filter.Database.PagesTotal)
			}
		},
		before: reviewInsert(606060, "pre-page-crash"),
		after:  reviewInsert(616161, "post-page-crash"),
	}, {
		// The first boot streams the 75,630-row dataset into pages
		// behind a 256 KiB pool; the restart must not run the generator.
		name:   "tpch-mb300-seed-skip",
		view:   "tpch",
		args:   []string{"-page-cache-bytes", "262144"},
		config: `{"views":[{"name":"tpch","dataset":"tpch","mb":300}]}`,
		first: func(t *testing.T, d *daemon, dir string) {
			if line := d.line("msg=seeded"); attr(line, "rows") != "75630" {
				t.Fatalf("first boot seed line %q, want rows=75630", line)
			}
			if line := d.line("seed skipped"); line != "" {
				t.Fatalf("first boot skipped its seed: %q", line)
			}
			if status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid)); err == nil {
				t.Logf("after the seed: %s", regexp.MustCompile(`VmHWM:\s*\d+ kB`).Find(status)) // recorded, not gated
			}
		},
		restart: func(t *testing.T, d *daemon, pre, post server.ViewStats) {
			// A checkpointed row keeps no in-memory version: both boots
			// hold versions for at most 1% of the rows.
			for _, st := range []server.ViewStats{pre, post} {
				if st.Versions.Versions*100 > st.RowsTotal {
					t.Errorf("%d versions for %d rows, want at most 1%%", st.Versions.Versions, st.RowsTotal)
				}
			}
			if pre.RowsTotal != 75630+1 {
				t.Errorf("rows_total %d before the kill, want 75631", pre.RowsTotal)
			}
			if db := post.Filter.Database; db.StatementsExecuted != 0 || db.PagesTotal <= 0 {
				t.Errorf("restart: statements_executed %d (want 0), pages_total %d", db.StatementsExecuted, db.PagesTotal)
			}
		},
		before: tpch.InsertLineitemUpdate(7, 99),
		after:  tpch.InsertLineitemUpdate(7, 98),
	}, {
		name: "book-shards-4",
		view: "book",
		args: []string{"-views", "book", "-shards", "4"},
		load: true,
		first: func(t *testing.T, d *daemon, dir string) {
			// Hash routing spreads the book rows over the shards, each
			// with its own commit sequence.
			d.metrics(t, `ufilterd_shards{view="book"} 4`, `ufilterd_shard_rows_total{view="book",shard="0"}`,
				`ufilterd_shard_rows_total{view="book",shard="3"}`, `ufilterd_shard_commit_seq{view="book",shard="1"}`)
			// One log for the view, pages under every shard's directory.
			if segs, _ := filepath.Glob(filepath.Join(dir, "book", "wal-*.seg")); len(segs) == 0 {
				t.Error("no WAL segment under book/")
			}
			for _, s := range []string{"shard-0", "shard-3"} {
				if fi, err := os.Stat(filepath.Join(dir, "book", s)); err != nil || !fi.IsDir() {
					t.Errorf("book/%s: %v", s, err)
				}
			}
		},
		restart: func(t *testing.T, d *daemon, pre, post server.ViewStats) {
			if post.Shards != 4 || len(post.ShardStats) != 4 {
				t.Errorf("restart: shards %d, %d shard_stats; want 4 and 4", post.Shards, len(post.ShardStats))
			}
		},
		before: reviewInsert(505050, "pre-shard-crash"),
		after:  reviewInsert(515151, "post-shard-crash"),
	}, {
		name:   "tpch-mb100-cross-shard",
		view:   "tpch",
		args:   []string{"-shards", "4"},
		config: `{"views":[{"name":"tpch","dataset":"tpch","mb":100}]}`,
		first: func(t *testing.T, d *daemon, dir string) {
			// One apply-batch over orders of several regions is one
			// transaction on several shards: each advances by one commit
			// and the view's one log flushes once, for one group of one
			// transaction.
			var updates []string
			for o := range int64(7) {
				updates = append(updates, tpch.InsertLineitemUpdate(o+1, 99))
			}
			pre := d.stats(t, "tpch")
			var res struct {
				Accepted int `json:"accepted"`
			}
			if d.call(t, "/views/tpch/apply-batch", map[string]any{"updates": updates}, &res); res.Accepted != 7 {
				t.Fatalf("apply-batch accepted %d of 7", res.Accepted)
			}
			post := d.stats(t, "tpch")
			var seqs []int64
			for i := range post.ShardStats {
				seqs = append(seqs, int64(post.ShardStats[i].CommitSeq-pre.ShardStats[i].CommitSeq))
			}
			d0, d1 := pre.Filter.Database, post.Filter.Database
			t.Logf("per-shard commits %v, fsyncs %d, groups %d, grouped txns %d", seqs,
				d1.Fsyncs-d0.Fsyncs, d1.GroupCommits-d0.GroupCommits, d1.GroupedTxns-d0.GroupedTxns)
			ones := 0
			for _, d := range seqs {
				if d == 1 {
					ones++
				}
			}
			if len(seqs) != 4 || slices.Max(seqs) != 1 || ones < 2 {
				t.Errorf("per-shard commit_seq deltas %v: want at most 1 each, and 1 on at least two shards", seqs)
			}
			if d1.Fsyncs-d0.Fsyncs != 1 || d1.GroupCommits-d0.GroupCommits != 1 || d1.GroupedTxns-d0.GroupedTxns != 1 {
				t.Errorf("the batch cost %d fsyncs, %d groups, %d grouped txns; want 1, 1, 1",
					d1.Fsyncs-d0.Fsyncs, d1.GroupCommits-d0.GroupCommits, d1.GroupedTxns-d0.GroupedTxns)
			}
			// The view keeps one log at its root and none per shard.
			if segs, _ := filepath.Glob(filepath.Join(dir, "tpch", "wal-*.seg")); len(segs) == 0 {
				t.Error("no WAL segment under tpch/")
			}
			if segs, _ := filepath.Glob(filepath.Join(dir, "tpch", "shard-0", "wal-*")); len(segs) != 0 {
				t.Errorf("shard-0 keeps a log of its own: %v", segs)
			}
		},
		restart: func(t *testing.T, d *daemon, pre, post server.ViewStats) {
			if line := d.line("recovered, seed skipped"); attr(line, "rows") != strconv.Itoa(post.RowsTotal) {
				t.Errorf("restart line %q, want rows=%d", line, post.RowsTotal)
			}
			if post.Shards != 4 {
				t.Errorf("restart: shards %d, want 4", post.Shards)
			}
		},
		after: tpch.InsertLineitemUpdate(7, 98),
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			args := append([]string{"-data-dir", dir}, c.args...)
			if c.config != "" {
				args = append(args, "-config", writeConfig(t, c.config))
			}
			d := boot(t, args...)
			if c.load {
				d.drive(t)
			}
			c.first(t, d, dir)
			if c.before != "" {
				d.apply(t, c.view, c.before)
			}
			pre := d.stats(t, c.view)
			d.kill()
			if c.killed != nil {
				c.killed(t, dir)
			}

			d = boot(t, args...)
			if d.line("recovered, seed skipped") == "" || d.line("msg=seeded") != "" {
				t.Fatalf("restart did not skip the seed:\n%s", d.line(""))
			}
			post := d.stats(t, c.view)
			t.Logf("rows_total %d before the kill, %d after the restart", pre.RowsTotal, post.RowsTotal)
			if post.RowsTotal != pre.RowsTotal {
				t.Fatalf("restart serves %d rows, %d were acknowledged", post.RowsTotal, pre.RowsTotal)
			}
			c.restart(t, d, pre, post)
			d.apply(t, c.view, c.after)
		})
	}
}

// TestDaemonRefusesPageCacheWithoutDataDir: a page-cache budget with no
// data dir would size nothing, so ufilterd refuses to start, from a
// flag or from a config file.
func TestDaemonRefusesPageCacheWithoutDataDir(t *testing.T) {
	for name, args := range map[string][]string{
		"flag":   {"-views", "book", "-page-cache-bytes", "65536"},
		"config": {"-config", writeConfig(t, `{"views":[{"name":"book","dataset":"book"}],"page_cache_bytes":65536}`)},
	} {
		t.Run(name, func(t *testing.T) {
			code, stderr := run(t, args...)
			if want := "ufilterd: -page-cache-bytes (page_cache_bytes) needs -data-dir (data_dir)"; code != 1 || !strings.HasPrefix(stderr, want) || strings.Count(stderr, "\n") != 1 {
				t.Fatalf("exit %d, stderr %q; want exit 1 and one line starting %q", code, stderr, want)
			}
		})
	}
}

// TestDaemonInMemory drives an in-memory daemon with -pprof-addr on an
// ephemeral port: the load passes, a snapshot-pinned data check is
// accepted, and profiles are served on the pprof listener only.
func TestDaemonInMemory(t *testing.T) {
	d := boot(t, "-views", "book", "-pprof-addr", "127.0.0.1:0")
	d.drive(t)

	var batch struct {
		Results []ufilter.BatchResult `json:"results"`
	}
	d.call(t, "/views/book/check-batch", map[string]any{"updates": []string{bookdb.U12}, "data": true}, &batch)
	if len(batch.Results) != 1 || batch.Results[0].Result == nil || !batch.Results[0].Result.Accepted {
		t.Fatalf("data check-batch of U12 not accepted: %+v", batch.Results)
	}

	pprofAddr := attr(d.line("pprof listening"), "addr")
	if strings.HasSuffix(pprofAddr, ":0") || pprofAddr == "" {
		t.Fatalf("pprof listener logged %q, want the bound address", pprofAddr)
	}
	resp, err := http.Get("http://" + pprofAddr + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	profile, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(profile) == 0 {
		t.Errorf("pprof listener: HTTP %d, %d-byte profile, %v; want 200 and a profile", resp.StatusCode, len(profile), err)
	}
	if status, _, err := d.do("/debug/pprof/profile?seconds=1", nil); err != nil || status != http.StatusNotFound {
		t.Errorf("service port answered the profile with HTTP %d, %v; want 404", status, err)
	}
}
