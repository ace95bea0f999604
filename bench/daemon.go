package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one spawned ufilterd child.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port

	mu      sync.Mutex
	logTail []string      // last stderr lines, for diagnostics
	drained chan struct{} // closed when stderr hit EOF
}

// startDaemon spawns the real ufilterd binary with the workload's
// configuration and returns once it answers /healthz. dataDir is empty
// for an in-memory daemon; an existing dataDir is recovered, not wiped.
func startDaemon(bin string, w *workload, cfgPath, dataDir string) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0", "-config", cfgPath}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	if w.Shards > 1 {
		args = append(args, "-shards", strconv.Itoa(w.Shards))
	}
	if w.PageCacheBytes > 0 {
		args = append(args, "-page-cache-bytes", strconv.FormatInt(w.PageCacheBytes, 10))
	}
	cmd := exec.Command(bin, args...)
	// Should the benchmark itself be killed, the daemon must not outlive it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1) // one send: the bound address
	go d.drain(stderr, addr)

	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.drained:
		d.kill()
		return nil, fmt.Errorf("ufilterd exited before listening:\n%s", d.tail())
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("ufilterd did not listen within 60s:\n%s", d.tail())
	}
	resp, err := http.Get(d.base + "/healthz")
	if err != nil {
		d.kill()
		return nil, fmt.Errorf("healthz: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.kill()
		return nil, fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
	return d, nil
}

// drain copies the child's stderr into a bounded tail and reports the
// address from its "listening" record.
func (d *daemon) drain(r io.Reader, addr chan<- string) {
	defer close(d.drained)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	sent := false
	for sc.Scan() {
		line := sc.Text()
		if !sent && strings.Contains(line, "msg=listening") {
			if i := strings.Index(line, "addr="); i >= 0 {
				a := line[i+len("addr="):]
				if j := strings.IndexByte(a, ' '); j >= 0 {
					a = a[:j]
				}
				addr <- a
				sent = true
			}
		}
		d.mu.Lock()
		d.logTail = append(d.logTail, line)
		if len(d.logTail) > 40 {
			d.logTail = d.logTail[1:]
		}
		d.mu.Unlock()
	}
}

func (d *daemon) tail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.logTail, "\n")
}

// kill sends SIGKILL and waits until the child has ended.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already-exited is fine: Wait below reaps either way
	<-d.drained
	_ = d.cmd.Wait() // "signal: killed" is the expected outcome
}

// procUsage reads the child's peak resident set (MB) and consumed CPU
// time (ms, user+system) from /proc.
func (d *daemon) procUsage() (rssPeakMB, cpuMs float64, err error) {
	pid := strconv.Itoa(d.cmd.Process.Pid)
	status, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, 0, fmt.Errorf("VmHWM: %w", err)
			}
			rssPeakMB = kb / 1024
		}
	}
	stat, err := os.ReadFile(filepath.Join("/proc", pid, "stat"))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, in clock ticks (100 Hz on Linux).
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("bad cpu ticks in /proc/%s/stat", pid)
	}
	return rssPeakMB, (ut + st) * 10, nil
}

// scrape is one read of the daemon's statistics surfaces.
type scrape struct {
	views map[string]map[string]any // view -> decoded /views/{name}/stats
	hists map[string]*promHist      // histogram family -> buckets summed over views
}

// promHist is one cumulative-bucket histogram family.
type promHist struct {
	bounds []float64
	cum    []float64
}

// scrapeStats reads /views/{name}/stats for every view.
func (d *daemon) scrapeStats(views []string) (*scrape, error) {
	s := &scrape{views: make(map[string]map[string]any)}
	for _, v := range views {
		resp, err := http.Get(d.base + "/views/" + v + "/stats")
		if err != nil {
			return nil, err
		}
		var m map[string]any
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("stats %s: %w", v, err)
		}
		s.views[v] = m
	}
	return s, nil
}

// scrapeAll reads the stats of every view plus /metrics' histograms.
func (d *daemon) scrapeAll(views []string) (*scrape, error) {
	s, err := d.scrapeStats(views)
	if err != nil {
		return nil, err
	}
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	s.hists = parsePromHists(string(text))
	return s, nil
}

// parsePromHists collects every `<family>_bucket{...,le="x"} n` line,
// summing series that share a family (one per view) bucket by bucket.
// Series with an endpoint label are skipped: the per-endpoint request
// histograms are not layer metrics.
func parsePromHists(text string) map[string]*promHist {
	out := make(map[string]*promHist)
	pos := make(map[string]int) // family|labels -> next bucket index
	for _, line := range strings.Split(text, "\n") {
		i := strings.Index(line, "_bucket{")
		if i < 0 || strings.HasPrefix(line, "#") || strings.Contains(line, "endpoint=") {
			continue
		}
		family := line[:i]
		j := strings.LastIndex(line, "} ")
		if j < 0 {
			continue
		}
		labels := line[i+len("_bucket{") : j]
		k := strings.Index(labels, `le="`)
		if k < 0 {
			continue
		}
		leText := labels[k+len(`le="`):]
		leText = leText[:strings.IndexByte(leText, '"')]
		le := math.Inf(1)
		if leText != "+Inf" {
			v, err := strconv.ParseFloat(leText, 64)
			if err != nil {
				continue
			}
			le = v
		}
		n, err := strconv.ParseFloat(strings.TrimSpace(line[j+2:]), 64)
		if err != nil {
			continue
		}
		h := out[family]
		if h == nil {
			h = &promHist{}
			out[family] = h
		}
		series := family + "|" + labels[:k]
		idx := pos[series]
		pos[series] = idx + 1
		if idx == len(h.bounds) {
			h.bounds = append(h.bounds, le)
			h.cum = append(h.cum, 0)
		}
		if idx < len(h.cum) {
			h.cum[idx] += n
		}
	}
	return out
}

// lookup resolves a dotted path ("filter.database.fsyncs_total") in a
// decoded JSON object. ok is false when any segment is missing or the
// leaf is not a number — the caller reports the metric as null.
func lookup(m map[string]any, path string) (float64, bool) {
	var cur any = m
	for _, seg := range strings.Split(path, ".") {
		obj, isObj := cur.(map[string]any)
		if !isObj {
			return 0, false
		}
		next, has := obj[seg]
		if !has {
			return 0, false
		}
		cur = next
	}
	v, isNum := cur.(float64)
	return v, isNum
}

// sum adds a stats path over every scraped view.
func (s *scrape) sum(path string) (float64, bool) {
	total := 0.0
	for _, m := range s.views {
		v, ok := lookup(m, path)
		if !ok {
			return 0, false
		}
		total += v
	}
	return total, true
}

// shardValues reads one field of every shard_stats entry of a view; an
// unsharded view reports its single database under the given fallback
// path.
func (s *scrape) shardValues(view, field, fallback string) ([]float64, bool) {
	m := s.views[view]
	raw, has := m["shard_stats"].([]any)
	if !has || len(raw) == 0 {
		v, ok := lookup(m, fallback)
		return []float64{v}, ok
	}
	out := make([]float64, 0, len(raw))
	for _, e := range raw {
		obj, isObj := e.(map[string]any)
		if !isObj {
			return nil, false
		}
		v, ok := lookup(obj, field)
		if !ok {
			return nil, false
		}
		out = append(out, v)
	}
	return out, true
}
