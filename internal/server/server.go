// Package server is the ufilterd subsystem: a long-running HTTP/JSON
// gateway that hosts a registry of named U-Filter views (each a
// compiled ufilter.Filter over its own database — in memory, or durable
// under a data directory, optionally hash-partitioned across shards)
// and exposes the paper's three-step update check over the wire.
//
// The serving model mirrors the library's concurrency contract.
// Schema-level checks (POST /views/{name}/check and /check-batch) read
// only immutable ASGs plus the internally synchronized decision cache,
// so they fan out freely across goroutines — one per request, exactly
// as net/http provides. A /check-batch request with "data": true
// additionally pins ONE MVCC snapshot of the view's database for the
// whole batch and runs Step 3's read-only probes against it: every
// verdict reflects the same point-in-time state, and checks never wait
// behind an in-flight apply (snapshot isolation in internal/relational
// makes the read path lock-free). Full-pipeline applies
// (POST /views/{name}/apply) run CONCURRENTLY, each in its own MVCC
// transaction: independent updates commit in parallel with their
// write-ahead-log flushes coalesced by the engine's WAL writer stage,
// and two updates contending for the same rows resolve by
// first-updater-wins with automatic retries — a request that exhausts
// its retries is answered 409 Conflict. The server fronts each view
// with a bounded concurrency limiter: a request either claims an
// execution slot or is shed immediately with 429 Too Many Requests
// and a Retry-After estimate, keeping the database's transaction
// population bounded under overload. The statistics handlers read row
// counts through a pinned snapshot, never from the live tables an
// apply is mutating.
//
// Endpoints:
//
//	GET  /healthz                    liveness probe
//	GET  /views                      list hosted views
//	POST /views                      register a view (ViewConfig JSON)
//	POST /views/{name}/check         schema-level Steps 1+2
//	POST /views/{name}/check-batch   worker-pool batch check
//	POST /views/{name}/apply         full pipeline + execution
//	POST /views/{name}/apply-batch   group-commit batch apply (one txn,
//	                                 one log flush for the whole batch)
//	GET  /views/{name}/stats         ViewStats JSON
//	GET  /views/{name}/slow          slowest recent request traces
//	GET  /metrics                    Prometheus-style text, all views
//
// Observability: every check/apply request runs under an obs.Trace
// recording per-stage spans (admission, cache lookup, bind, context
// checks, translate, execute, commit publish, WAL fsync); the slowest
// land in the per-view ring behind /slow, and a request carrying
// "X-UFilter-Trace: 1" gets its own stage breakdown back in the JSON
// response. /metrics adds per-endpoint latency histogram families to
// the counters; the engine's families are declared once, on the
// relational statistics structs' fields, and rendered from them.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/relational"
	"repro/internal/ufilter"
)

// Server hosts the registry behind an http.Server with graceful
// shutdown.
type Server struct {
	Registry *Registry

	// Log receives the server's structured operational records (view
	// registrations, shed/conflicted/errored applies); slog.Default()
	// when nil.
	Log *slog.Logger

	httpSrv *http.Server
	ln      net.Listener
}

// New builds a server over a registry (an empty one when nil).
func New(reg *Registry) *Server {
	if reg == nil {
		reg = NewRegistry()
	}
	s := &Server{Registry: reg}
	s.httpSrv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s
}

// Handler returns the route table, usable directly under httptest.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /views", s.handleListViews)
	mux.HandleFunc("POST /views", s.handleCreateView)
	mux.HandleFunc("POST /views/{name}/check", s.withView(s.handleCheck))
	mux.HandleFunc("POST /views/{name}/check-batch", s.withView(s.handleCheckBatch))
	mux.HandleFunc("POST /views/{name}/apply", s.withView(s.handleApply))
	mux.HandleFunc("POST /views/{name}/apply-batch", s.withView(s.handleApplyBatch))
	mux.HandleFunc("GET /views/{name}/stats", s.withView(s.handleStats))
	mux.HandleFunc("GET /views/{name}/slow", s.withView(s.handleSlow))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// Listen binds the address (host:0 selects an ephemeral port) and
// returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	return ln.Addr().String(), nil
}

// Serve blocks serving requests on the listener bound by Listen until
// Shutdown or a fatal error. http.ErrServerClosed is filtered as the
// normal shutdown signal.
func (s *Server) Serve() error {
	if s.ln == nil {
		return fmt.Errorf("server: Serve before Listen")
	}
	if err := s.httpSrv.Serve(s.ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// Shutdown drains in-flight requests and stops the server.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.httpSrv.Shutdown(ctx)
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// logger returns the configured structured logger or the default one.
func (s *Server) logger() *slog.Logger {
	if s.Log != nil {
		return s.Log
	}
	return slog.Default()
}

// traceHeader is the opt-in request header whose value "1" returns the
// request's stage breakdown in the JSON response.
const traceHeader = "X-UFilter-Trace"

// startTrace begins the request's span recorder for the batch
// endpoints, which are always traced — a batch is a macroscopic
// operation and the recorder's handful of spans is noise against it.
// The breakdown is only returned to clients that opted in.
func startTrace(r *http.Request, op string) (*obs.Trace, context.Context, bool) {
	tr := obs.StartTrace(op)
	return tr, obs.WithTrace(r.Context(), tr), r.Header.Get(traceHeader) == "1"
}

// Single check and apply requests sample their span traces instead of
// recording one for every request: a plan-cached check runs in a few
// hundred nanoseconds and an apply's spans still cost a dozen clock
// reads, so always-on tracing would tax the hot path for breakdowns
// nobody reads. 1-in-N sampling (the first request and every N-th
// after, per endpoint class) keeps the slow ring fed with recent
// outliers, and a header opt-in always traces. The latency histograms
// record EVERY request regardless of sampling — only span collection
// is sampled. Applies sample denser than checks because each one is
// ~1000x more work, making the relative cost negligible.
const (
	checkTraceSampleEvery = 64
	applyTraceSampleEvery = 8
)

// withView resolves the {name} path value to a registered view.
func (s *Server) withView(fn func(http.ResponseWriter, *http.Request, *View)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		v, ok := s.Registry.Get(name)
		if !ok {
			writeError(w, http.StatusNotFound, "no such view %q", name)
			return
		}
		fn(w, r, v)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "views": len(s.Registry.Names())})
}

// viewInfo is one row of GET /views.
type viewInfo struct {
	Name       string `json:"name"`
	Dataset    string `json:"dataset"`
	Strategy   string `json:"strategy"`
	QueueDepth int    `json:"queue_depth"`
}

func (s *Server) handleListViews(w http.ResponseWriter, _ *http.Request) {
	views := s.Registry.Views()
	out := make([]viewInfo, len(views))
	for i, v := range views {
		out[i] = viewInfo{Name: v.Name, Dataset: v.Dataset, Strategy: v.Strategy.String(), QueueDepth: v.QueueCapacity()}
	}
	writeJSON(w, http.StatusOK, map[string]any{"views": out})
}

func (s *Server) handleCreateView(w http.ResponseWriter, r *http.Request) {
	var vc ViewConfig
	if !decodeBody(w, r, &vc) {
		return
	}
	v, err := s.Registry.Add(vc)
	if err != nil {
		status := statusFor(err)
		s.logger().Warn("view registration failed", "view", vc.Name, "status", status, "err", err)
		writeError(w, status, "%v", err)
		return
	}
	s.logger().Info("view registered", "view", v.Name, "dataset", v.Dataset,
		"strategy", v.Strategy.String(), "queue_depth", v.QueueCapacity())
	writeJSON(w, http.StatusCreated, viewInfo{Name: v.Name, Dataset: v.Dataset, Strategy: v.Strategy.String(), QueueDepth: v.QueueCapacity()})
}

// checkRequest is the body of /check and /apply.
type checkRequest struct {
	Update string `json:"update"`
}

// batchRequest is the body of /check-batch.
type batchRequest struct {
	Updates []string `json:"updates"`
	Workers int      `json:"workers,omitempty"`
	// Data extends the batch check with Step 3's read-only probes,
	// evaluated against ONE database snapshot pinned for the whole
	// request: every verdict reflects the same point-in-time state, and
	// the request never waits behind an in-flight apply.
	Data bool `json:"data,omitempty"`
}

// maxBodyBytes bounds a request body.
const maxBodyBytes = 4 << 20

// decodeBody decodes a POST /views body (a ViewConfig) into v and
// reports whether it did; otherwise it has answered the request: 413 for
// a body over maxBodyBytes, 400 for a malformed one. The hot endpoints
// decode through readRequest instead (wire.go).
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
	} else {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	return false
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request, v *View) {
	wb := getWireBuf()
	defer wb.release()
	var req checkRequest
	if !readRequest(w, r, wb, req.decode) {
		return
	}
	wantTrace := r.Header.Get(traceHeader) == "1"
	var tr *obs.Trace
	ctx := r.Context()
	if wantTrace || v.sampleTrace(&v.checkTraceSeq, checkTraceSampleEvery) {
		tr = obs.StartTrace("check")
		ctx = obs.WithTrace(ctx, tr)
	}
	res, err := v.Check(ctx, req.Update)
	tr.Finish()
	v.OfferSlow(tr.Summary()) // nil trace → zero summary → ignored
	if err != nil {
		s.logger().Warn("check failed", "view", v.Name, "err", err)
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	wb.b = appendVerdict(wb.b[:0], res, tr, wantTrace)
	writeWire(w, wb.b)
}

func (s *Server) handleCheckBatch(w http.ResponseWriter, r *http.Request, v *View) {
	wb := getWireBuf()
	defer wb.release()
	var req batchRequest
	if !readRequest(w, r, wb, req.decode) {
		return
	}
	if len(req.Updates) == 0 {
		writeError(w, http.StatusBadRequest, "updates must be non-empty")
		return
	}
	tr, ctx, wantTrace := startTrace(r, "check-batch")
	var results []ufilter.BatchResult
	if req.Data {
		results = v.CheckBatchData(ctx, req.Updates, req.Workers)
	} else {
		results = v.CheckBatch(ctx, req.Updates, req.Workers)
	}
	tr.Finish()
	v.OfferSlow(tr.Summary())
	wb.b = appendBatchTail(append(wb.b[:0], '{'), results, tr, wantTrace)
	writeWire(w, wb.b)
}

func (s *Server) handleApply(w http.ResponseWriter, r *http.Request, v *View) {
	wb := getWireBuf()
	defer wb.release()
	var req checkRequest
	if !readRequest(w, r, wb, req.decode) {
		return
	}
	reqStart := time.Now()
	wantTrace := r.Header.Get(traceHeader) == "1"
	var tr *obs.Trace
	ctx := r.Context()
	if wantTrace || v.sampleTrace(&v.applyTraceSeq, applyTraceSampleEvery) {
		tr = obs.StartTrace("apply")
		ctx = obs.WithTrace(ctx, tr)
	}
	res, retry, ok, err := v.Apply(ctx, req.Update)
	tr.Finish()
	if !ok {
		secs := int(retry / time.Second)
		if secs < 1 {
			secs = 1
		}
		s.logger().Warn("apply shed", "view", v.Name, "retry_after_s", secs, "queue_depth", v.QueueCapacity())
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusTooManyRequests,
			"apply queue for view %q is full (depth %d); retry after %ds", v.Name, v.QueueCapacity(), secs)
		return
	}
	v.OfferSlow(tr.Summary()) // nil trace → zero summary → ignored
	if err != nil {
		status := statusFor(err)
		s.logger().Warn("apply failed", "view", v.Name, "status", status, "err", err,
			"latency_ms", float64(time.Since(reqStart))/float64(time.Millisecond))
		if status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, status, "apply on view %q: %v", v.Name, err)
		return
	}
	wb.b = appendVerdict(wb.b[:0], res, tr, wantTrace)
	writeWire(w, wb.b)
}

// statusFor maps an apply's or a view registration's error to its HTTP
// status: a commit the write-ahead log could not make durable is the
// server's trouble (503, retry later: the update itself may be fine), a
// write-write conflict that exhausted its retries is 409 (re-submit), a
// data dir in another on-disk format is 409 too (the server's state, not
// the request: it holds until the dir is deleted), and anything else is
// the request's own fault (422).
func statusFor(err error) int {
	switch {
	case errors.Is(err, relational.ErrWALFailed):
		return http.StatusServiceUnavailable
	case errors.Is(err, relational.ErrWriteConflict), errors.Is(err, relational.ErrDataDirFormat):
		return http.StatusConflict
	default:
		return http.StatusUnprocessableEntity
	}
}

// handleApplyBatch runs a batch of updates through the group-commit
// apply path: one admission slot, one transaction, one log flush for
// every accepted update in the batch. Per-update verdicts come back in
// input order.
func (s *Server) handleApplyBatch(w http.ResponseWriter, r *http.Request, v *View) {
	wb := getWireBuf()
	defer wb.release()
	var req batchRequest
	if !readRequest(w, r, wb, req.decode) {
		return
	}
	if len(req.Updates) == 0 {
		writeError(w, http.StatusBadRequest, "updates must be non-empty")
		return
	}
	tr, ctx, wantTrace := startTrace(r, "apply-batch")
	results, retry, ok := v.ApplyBatch(ctx, req.Updates)
	tr.Finish()
	if !ok {
		secs := int(retry / time.Second)
		if secs < 1 {
			secs = 1
		}
		s.logger().Warn("apply-batch shed", "view", v.Name, "retry_after_s", secs, "batch", len(req.Updates))
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusTooManyRequests,
			"apply queue for view %q is full (depth %d); retry after %ds", v.Name, v.QueueCapacity(), secs)
		return
	}
	v.OfferSlow(tr.Summary())
	accepted := 0
	for _, br := range results {
		if br.Err == nil && br.Result != nil && br.Result.Accepted {
			accepted++
		}
	}
	out := strconv.AppendInt(append(wb.b[:0], `{"accepted":`...), int64(accepted), 10)
	out = strconv.AppendInt(append(out, `,"rejected":`...), int64(len(results)-accepted), 10)
	wb.b = appendBatchTail(append(out, ','), results, tr, wantTrace)
	writeWire(w, wb.b)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request, v *View) {
	writeJSON(w, http.StatusOK, v.Stats())
}

// handleSlow serves the view's slowest recent request traces, slowest
// first, with per-stage span breakdowns.
func (s *Server) handleSlow(w http.ResponseWriter, _ *http.Request, v *View) {
	traces := v.SlowTraces()
	writeJSON(w, http.StatusOK, map[string]any{"view": v.Name, "count": len(traces), "slow": traces})
}
