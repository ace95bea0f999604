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
// Errors: a failed request is answered {"error", "code"}, the code one
// of a closed set (bad_request, body_too_large, unknown_view,
// unknown_route, method_not_allowed, unprocessable, overloaded,
// write_conflict, data_dir_format, storage_unavailable). codeFor
// derives it from the error and errorStatus maps it to the HTTP status;
// writeError is the one way a failure is answered.
//
// Observability: every check/apply request runs under an obs.Trace
// recording per-stage spans (admission, cache lookup, bind, context
// checks, translate, execute, commit publish, WAL fsync); the slowest
// land in the per-view ring behind /slow, and a request carrying
// "X-UFilter-Trace: 1" gets its own stage breakdown back in the JSON
// response. Every /metrics family is declared once, by a stat tag on
// the ViewStats field it reads or on a statistics struct under it, and
// obs.WriteStats renders them.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/relational"
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
	mux.HandleFunc("/", noRoute(mux))
	return mux
}

// noRoute answers a request no other route of mux matches, in the error
// envelope: 405 method_not_allowed, with the methods the path does take
// in Allow, when some route has the path, else 404 unknown_route.
func noRoute(mux *http.ServeMux) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var allow []string
		for _, m := range []string{http.MethodGet, http.MethodHead, http.MethodPost} {
			if _, pattern := mux.Handler(&http.Request{Method: m, URL: r.URL, Host: r.Host}); pattern != "/" {
				allow = append(allow, m)
			}
		}
		if len(allow) == 0 {
			writeError(w, codeError{codeUnknownRoute, fmt.Errorf("no route for %s", r.URL.Path)})
			return
		}
		allowed := strings.Join(allow, ", ")
		w.Header().Set("Allow", allowed)
		writeError(w, codeError{codeMethodNotAllowed, fmt.Errorf("%s does not take %s (allowed: %s)", r.URL.Path, r.Method, allowed)})
	}
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

// Every failure is answered with one code of this closed set next to
// its message, and the code alone picks the HTTP status (errorStatus).
const (
	codeBadRequest         = "bad_request"
	codeBodyTooLarge       = "body_too_large"
	codeUnknownView        = "unknown_view"
	codeUnknownRoute       = "unknown_route"
	codeMethodNotAllowed   = "method_not_allowed"
	codeUnprocessable      = "unprocessable"
	codeOverloaded         = "overloaded"
	codeWriteConflict      = "write_conflict"
	codeDataDirFormat      = "data_dir_format"
	codeStorageUnavailable = "storage_unavailable"
)

// errorStatus is the status each code answers with; README.md's Errors
// table holds the same rows (TestErrorTable).
var errorStatus = map[string]int{
	codeBadRequest:         http.StatusBadRequest,
	codeBodyTooLarge:       http.StatusRequestEntityTooLarge,
	codeUnknownView:        http.StatusNotFound,
	codeUnknownRoute:       http.StatusNotFound,
	codeMethodNotAllowed:   http.StatusMethodNotAllowed,
	codeUnprocessable:      http.StatusUnprocessableEntity,
	codeOverloaded:         http.StatusTooManyRequests,
	codeWriteConflict:      http.StatusConflict,
	codeDataDirFormat:      http.StatusConflict,
	codeStorageUnavailable: http.StatusServiceUnavailable,
}

// codeFor classifies an error. The engine's failures keep their code
// however they are wrapped: a commit the log could not make durable is
// the server's trouble (retry later: the update itself may be fine), a
// conflict that exhausted its retries is worth re-submitting, and a data
// dir in another on-disk format holds until it is deleted. Anything not
// named otherwise is the request's own fault.
func codeFor(err error) string {
	var (
		tooBig *http.MaxBytesError
		shed   *shedError
		coded  codeError
	)
	switch {
	case errors.As(err, &tooBig):
		return codeBodyTooLarge
	case errors.As(err, &shed):
		return codeOverloaded
	case errors.Is(err, relational.ErrWALFailed):
		return codeStorageUnavailable
	case errors.Is(err, relational.ErrWriteConflict):
		return codeWriteConflict
	case errors.Is(err, relational.ErrDataDirFormat):
		return codeDataDirFormat
	case errors.As(err, &coded):
		return coded.code
	default:
		return codeUnprocessable
	}
}

// codeError gives an error the code codeFor cannot derive from it.
type codeError struct {
	code string
	error
}

func (e codeError) Unwrap() error { return e.error }

func badRequest(format string, args ...any) error {
	return codeError{codeBadRequest, fmt.Errorf(format, args...)}
}

// shedError is an apply the concurrency limiter turned away; the client
// is told to retry after retryAfter seconds.
type shedError struct {
	view              string
	depth, retryAfter int
}

func (e *shedError) Error() string {
	return fmt.Sprintf("apply queue for view %q is full (depth %d); retry after %ds", e.view, e.depth, e.retryAfter)
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeError answers a failed request: its code's status, a Retry-After
// where the client should come back (a shed's estimate, one second for
// unavailable storage), and the error envelope.
func writeError(w http.ResponseWriter, err error) {
	code := codeFor(err)
	var shed *shedError
	if errors.As(err, &shed) {
		w.Header().Set("Retry-After", strconv.Itoa(shed.retryAfter))
	} else if code == codeStorageUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, errorStatus[code], errorBody{Error: err.Error(), Code: code})
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

// startTrace begins the request's span recorder when the request is
// sampled or opted in, and reports whether the client opted in to
// getting the breakdown back. The batch endpoints are always sampled — a
// batch is a macroscopic operation and the recorder's handful of spans
// is noise against it.
func startTrace(r *http.Request, op string, sampled bool) (*obs.Trace, context.Context, bool) {
	want := r.Header.Get(traceHeader) == "1"
	if !want && !sampled {
		return nil, r.Context(), false
	}
	tr := obs.StartTrace(op)
	return tr, obs.WithTrace(r.Context(), tr), want
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
			writeError(w, codeError{codeUnknownView, fmt.Errorf("no such view %q", name)})
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
	wb := getWireBuf()
	defer wb.release()
	var vc ViewConfig
	if !readRequest(w, r, wb, vc.decode) {
		return
	}
	var v *View
	err := checkClientSize(vc)
	if err == nil {
		v, err = s.Registry.Add(vc)
	}
	if err != nil {
		s.logger().Warn("view registration failed", "view", vc.Name, "code", codeFor(err), "err", err)
		writeError(w, err)
		return
	}
	s.logger().Info("view registered", "view", v.Name, "dataset", v.Dataset,
		"strategy", v.Strategy.String(), "queue_depth", v.QueueCapacity())
	writeJSON(w, http.StatusCreated, viewInfo{Name: v.Name, Dataset: v.Dataset, Strategy: v.Strategy.String(), QueueDepth: v.QueueCapacity()})
}

// The largest dataset a client may ask POST /views to build: the
// largest size any workload seeds. A boot config or -views is operator
// input and is not bounded.
const (
	maxClientMB       = 300
	maxClientProteins = 1000
	maxClientShards   = 16
)

// checkClientSize refuses a view a client asks for that is larger than
// the limits above (422 unprocessable).
func checkClientSize(vc ViewConfig) error {
	for _, f := range []struct {
		name     string
		got, max int
	}{{"mb", vc.MB, maxClientMB}, {"proteins", vc.Proteins, maxClientProteins}, {"shards", vc.Shards, maxClientShards}} {
		if f.got > f.max {
			return fmt.Errorf("view %q: %s %d is over the limit of %d", vc.Name, f.name, f.got, f.max)
		}
	}
	return nil
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

// decode fills the config from a POST /views body, the one request
// decoded with encoding/json.
func (vc *ViewConfig) decode(body []byte) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(vc)
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request, v *View) {
	wb := getWireBuf()
	defer wb.release()
	var req checkRequest
	if !readRequest(w, r, wb, req.decode) {
		return
	}
	tr, ctx, wantTrace := startTrace(r, "check", v.sampleTrace(&v.checkTraceSeq, checkTraceSampleEvery))
	res, err := v.Check(ctx, req.Update)
	tr.Finish()
	v.OfferSlow(tr.Summary()) // nil trace → zero summary → ignored
	if err != nil {
		s.logger().Warn("check failed", "view", v.Name, "err", err)
		writeError(w, err)
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
		writeError(w, badRequest("updates must be non-empty"))
		return
	}
	tr, ctx, wantTrace := startTrace(r, "check-batch", true)
	results := v.CheckBatch(ctx, req.Updates, req.Workers, req.Data)
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
	tr, ctx, wantTrace := startTrace(r, "apply", v.sampleTrace(&v.applyTraceSeq, applyTraceSampleEvery))
	res, err := v.Apply(ctx, req.Update)
	tr.Finish()
	v.OfferSlow(tr.Summary()) // nil trace → zero summary → ignored
	if err != nil {
		s.logger().Warn("apply failed", "view", v.Name, "code", codeFor(err), "err", err,
			"latency_ms", float64(time.Since(reqStart))/float64(time.Millisecond))
		writeError(w, err)
		return
	}
	wb.b = appendVerdict(wb.b[:0], res, tr, wantTrace)
	writeWire(w, wb.b)
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
		writeError(w, badRequest("updates must be non-empty"))
		return
	}
	tr, ctx, wantTrace := startTrace(r, "apply-batch", true)
	results, err := v.ApplyBatch(ctx, req.Updates)
	tr.Finish()
	v.OfferSlow(tr.Summary())
	if err != nil {
		s.logger().Warn("apply-batch failed", "view", v.Name, "code", codeFor(err), "err", err, "batch", len(req.Updates))
		writeError(w, err)
		return
	}
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
