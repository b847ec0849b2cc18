// Package server exposes a RASED deployment as the dashboard backend: a JSON
// HTTP API for analysis queries, sample-update queries, changeset lookup, and
// catalog metadata, plus a minimal embedded dashboard page. This is the
// programmatic face of the paper's User Interface module; the visual
// dashboard at rased.cs.umn.edu renders what these endpoints return.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rased/internal/core"
	"rased/internal/exec"
	"rased/internal/geo"
	"rased/internal/obs"
	"rased/internal/osm"
	"rased/internal/roads"
	"rased/internal/temporal"
	"rased/internal/update"
	"rased/internal/warehouse"
)

// Backend is what the server needs from a deployment; *rased.Deployment
// satisfies it. Analysis runs under the request context so client disconnects
// and per-query timeouts stop cube fetches, and so the engine's admission
// control can shed load with exec.ErrRejected.
type Backend interface {
	AnalyzeContext(ctx context.Context, q core.Query) (*core.Result, error)
	Sample(q warehouse.SampleQuery) ([]update.Record, error)
	ByChangeset(id int64) ([]update.Record, error)
	Coverage() (lo, hi temporal.Day, ok bool)
	Health() core.Health
}

// Server is the HTTP handler set.
type Server struct {
	backend      Backend
	mux          *http.ServeMux
	reg          *obs.Registry
	log          *slog.Logger
	queryTimeout time.Duration // 0: bound only by the request context

	liveStatus    func() LiveStatus    // nil: not a live deployment
	clusterStatus func() (string, any) // nil: not a clustered deployment

	// Multi-tenant QoS extraction (see WithQoS): off by default.
	qosOn        bool
	tenantHeader string

	cMu       sync.Mutex
	reqCounts map[reqKey]*obs.Counter
	routeHist map[string]*obs.Histogram
}

// LiveStatus is the live-ingest snapshot /healthz reports: the published
// epoch, the day being folded, and how far ingest lags behind the feed. It
// mirrors live.Pipeline's status without the server depending on that
// package.
type LiveStatus struct {
	Epoch   uint64  `json:"epoch"`
	Day     string  `json:"day,omitempty"`
	Folds   int64   `json:"folds"`
	LagSecs float64 `json:"last_lag_seconds"`
}

// Option configures a Server at construction.
type Option func(*Server)

// WithRegistry exports an existing registry (typically rased's
// Deployment.Obs) at /metrics and /api/stats, and registers the server's own
// HTTP metrics into it so engine and transport metrics share one scrape.
// Without this option the server keeps a private registry holding only the
// HTTP metrics.
func WithRegistry(reg *obs.Registry) Option {
	return func(s *Server) { s.reg = reg }
}

// WithLogger sets the logger for request-scoped access logs. Requests are
// logged at Debug so benchmarks and production defaults stay quiet; run the
// logger at LevelDebug to see them.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) { s.log = l }
}

// WithQueryTimeout bounds each analysis query's execution: the query context
// is cancelled after d, returning 504 to the client while the engine stops
// fetching cubes. Zero (the default) leaves queries bound only by the
// request context (client disconnect, server write timeout).
func WithQueryTimeout(d time.Duration) Option {
	return func(s *Server) { s.queryTimeout = d }
}

// WithLiveStatus marks the deployment as live-ingesting: /healthz reports the
// snapshot fn returns (current epoch, fold count, ingest lag) alongside the
// coverage window.
func WithLiveStatus(fn func() LiveStatus) Option {
	return func(s *Server) { s.liveStatus = fn }
}

// WithClusterStatus marks the deployment as clustered: /healthz embeds the
// detail fn returns (the router's per-shard breakdown) under "cluster", and a
// returned status of "degraded" degrades the top-level status — still at HTTP
// 200, same contract as single-node degradation: the tier may well be
// answering exactly via replicas, but the operator should look.
func WithClusterStatus(fn func() (status string, detail any)) Option {
	return func(s *Server) { s.clusterStatus = fn }
}

// New builds a server over a backend.
func New(b Backend, opts ...Option) *Server {
	s := &Server{
		backend:   b,
		mux:       http.NewServeMux(),
		reqCounts: make(map[reqKey]*obs.Counter),
		routeHist: make(map[string]*obs.Histogram),
	}
	for _, o := range opts {
		o(s)
	}
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	if s.log == nil {
		s.log = slog.Default()
	}
	s.handle("GET /api/meta", "/api/meta", s.handleMeta)
	s.handle("POST /api/analysis", "/api/analysis", s.handleAnalysis)
	s.handle("GET /api/analysis", "/api/analysis", s.handleAnalysisGet)
	s.handle("POST /api/samples", "/api/samples", s.handleSamples)
	s.handle("GET /api/timelapse", "/api/timelapse", s.handleTimelapse)
	s.handle("GET /api/changeset/{id}", "/api/changeset/{id}", s.handleChangeset)
	s.handle("GET /api/stats", "/api/stats", s.handleStats)
	s.handle("GET /metrics", "/metrics", s.handleMetrics)
	s.handle("GET /healthz", "/healthz", s.handleHealthz)
	s.handle("GET /", "/", s.handleDashboard)
	return s
}

// Registry returns the registry the server exports.
func (s *Server) Registry() *obs.Registry { return s.reg }

// ServeHTTP dispatches to the API mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// reqKey identifies one rased_http_requests_total series.
type reqKey struct {
	route  string
	method string
	code   int
}

// handle registers a route wrapped in the instrumentation middleware: a
// per-route latency histogram, per-(route,method,code) request counters, and
// a Debug-level access log line. The route label is passed explicitly (not
// derived from the pattern at request time) so GET and POST on one path
// share a latency series.
func (s *Server) handle(pattern, route string, h http.HandlerFunc) {
	hist, ok := s.routeHist[route] // GET and POST on one path share the series
	if !ok {
		hist = obs.NewHistogram("rased_http_request_latency_seconds",
			"HTTP request latency by route.", nil, obs.L("route", route))
		s.reg.MustRegister(hist)
		s.routeHist[route] = hist
	}
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		elapsed := time.Since(start)
		hist.Observe(elapsed)
		s.requestCounter(route, r.Method, rec.status).Inc()
		s.log.Debug("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"elapsed_ms", float64(elapsed.Nanoseconds())/1e6,
		)
	})
}

// requestCounter returns (lazily creating and registering) the counter for
// one route/method/status combination.
func (s *Server) requestCounter(route, method string, code int) *obs.Counter {
	k := reqKey{route: route, method: method, code: code}
	s.cMu.Lock()
	defer s.cMu.Unlock()
	c, ok := s.reqCounts[k]
	if !ok {
		c = obs.NewCounter("rased_http_requests_total", "HTTP requests served.",
			obs.L("route", route), obs.L("method", method), obs.L("code", strconv.Itoa(code)))
		s.reg.MustRegister(c)
		s.reqCounts[k] = c
	}
	return c
}

// WithLogging wraps a handler with structured per-request access logging at
// Info level. Deprecated in favor of the built-in middleware (see
// WithLogger), kept for callers that wrap the server in extra handlers.
func WithLogging(h http.Handler, logger *slog.Logger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(rec, r)
		logger.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"elapsed_ms", float64(time.Since(start).Nanoseconds())/1e6,
		)
	})
}

// handleMetrics serves the registry in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// handleStats serves the same snapshot as /metrics, JSON-encoded.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"metrics": s.reg.Snapshot()})
}

// handleHealthz reports liveness plus the served coverage window and the
// degraded-mode status. A degraded deployment still answers exactly (from
// constituent cubes), so it stays HTTP 200 — status "degraded" with the
// quarantine count tells the operator to scrub or rebuild, without making
// load balancers evict a working replica.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resp := map[string]any{"status": "ok"}
	if h := s.backend.Health(); h.Degraded {
		resp["status"] = "degraded"
		resp["health"] = h
	}
	if lo, hi, ok := s.backend.Coverage(); ok {
		resp["coverage_from"] = lo.String()
		resp["coverage_to"] = hi.String()
	}
	if s.liveStatus != nil {
		resp["live"] = s.liveStatus()
	}
	if s.clusterStatus != nil {
		status, detail := s.clusterStatus()
		resp["cluster"] = detail
		if status == "degraded" {
			resp["status"] = "degraded"
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// statusRecorder captures the response status for access logs.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

//rased:errsink
func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// metaResponse describes the deployment: coverage and catalogs.
type metaResponse struct {
	CoverageFrom string   `json:"coverage_from,omitempty"`
	CoverageTo   string   `json:"coverage_to,omitempty"`
	Countries    []string `json:"countries"`
	RoadTypes    []string `json:"road_types"`
	ElementTypes []string `json:"element_types"`
	UpdateTypes  []string `json:"update_types"`
	Granularity  []string `json:"granularities"`
}

func (s *Server) handleMeta(w http.ResponseWriter, _ *http.Request) {
	resp := metaResponse{
		Countries:    geo.Default().Names(),
		RoadTypes:    roads.Names(),
		ElementTypes: osm.ElementTypeNames(),
		UpdateTypes:  update.TypeNames(),
		Granularity:  []string{"none", "day", "week", "month", "year"},
	}
	if lo, hi, ok := s.backend.Coverage(); ok {
		resp.CoverageFrom = lo.String()
		resp.CoverageTo = hi.String()
	}
	writeJSON(w, http.StatusOK, resp)
}

// AnalysisRequest is the JSON form of a core.Query.
type AnalysisRequest struct {
	From         string   `json:"from"`
	To           string   `json:"to"`
	ElementTypes []string `json:"element_types,omitempty"`
	Countries    []string `json:"countries,omitempty"`
	RoadTypes    []string `json:"road_types,omitempty"`
	UpdateTypes  []string `json:"update_types,omitempty"`
	GroupBy      []string `json:"group_by,omitempty"` // element_type, country, road_type, update_type
	Granularity  string   `json:"granularity,omitempty"`
	Percentage   bool     `json:"percentage,omitempty"`
	Limit        int      `json:"limit,omitempty"`
	// OrderBy re-sorts the rows on one column before the limit applies (the
	// paper: "tabular format sorted on any column"): count, percentage,
	// country, element_type, road_type, update_type, or period. Prefix with
	// "-" for descending. Default: the engine's canonical order.
	OrderBy string `json:"order_by,omitempty"`
	// Debug selects execution diagnostics: "trace" attaches the executed
	// plan, cache residency, page I/O, and stage timings to the result.
	Debug string `json:"debug,omitempty"`
}

// sortRowsBy re-orders rows on the requested column.
func sortRowsBy(rows []core.Row, orderBy string) error {
	desc := strings.HasPrefix(orderBy, "-")
	col := strings.TrimPrefix(orderBy, "-")
	var key func(r core.Row) (string, float64, bool) // (text, number, numeric?)
	switch col {
	case "count":
		key = func(r core.Row) (string, float64, bool) { return "", float64(r.Count), true }
	case "percentage":
		key = func(r core.Row) (string, float64, bool) { return "", r.Percentage, true }
	case "country":
		key = func(r core.Row) (string, float64, bool) { return r.Country, 0, false }
	case "element_type":
		key = func(r core.Row) (string, float64, bool) { return r.ElementType, 0, false }
	case "road_type":
		key = func(r core.Row) (string, float64, bool) { return r.RoadType, 0, false }
	case "update_type":
		key = func(r core.Row) (string, float64, bool) { return r.UpdateType, 0, false }
	case "period":
		key = func(r core.Row) (string, float64, bool) { return r.Period, 0, false }
	default:
		return fmt.Errorf("unknown order_by column %q: %w", col, core.ErrBadQuery)
	}
	sort.SliceStable(rows, func(a, b int) bool {
		sa, na, numeric := key(rows[a])
		sb, nb, _ := key(rows[b])
		var less bool
		if numeric {
			less = na < nb
		} else {
			less = sa < sb
		}
		if desc {
			return !less && (numeric && na != nb || !numeric && sa != sb)
		}
		return less
	})
	return nil
}

// ToQuery converts the request to a core.Query.
func (r *AnalysisRequest) ToQuery() (core.Query, error) {
	var q core.Query
	var err error
	if q.From, err = temporal.ParseDay(r.From); err != nil {
		return q, fmt.Errorf("bad from: %w", err)
	}
	if q.To, err = temporal.ParseDay(r.To); err != nil {
		return q, fmt.Errorf("bad to: %w", err)
	}
	q.ElementTypes = r.ElementTypes
	q.Countries = r.Countries
	q.RoadTypes = r.RoadTypes
	q.UpdateTypes = r.UpdateTypes
	q.Percentage = r.Percentage
	for _, g := range r.GroupBy {
		switch g {
		case "element_type":
			q.GroupBy.ElementType = true
		case "country":
			q.GroupBy.Country = true
		case "road_type":
			q.GroupBy.RoadType = true
		case "update_type":
			q.GroupBy.UpdateType = true
		default:
			return q, fmt.Errorf("unknown group_by %q: %w", g, core.ErrBadQuery)
		}
	}
	switch r.Granularity {
	case "", "none":
		q.GroupBy.Date = core.None
	case "day":
		q.GroupBy.Date = core.ByDay
	case "week":
		q.GroupBy.Date = core.ByWeek
	case "month":
		q.GroupBy.Date = core.ByMonth
	case "year":
		q.GroupBy.Date = core.ByYear
	default:
		return q, fmt.Errorf("unknown granularity %q: %w", r.Granularity, core.ErrBadQuery)
	}
	switch r.Debug {
	case "", "none":
	case "trace":
		q.Trace = true
	default:
		return q, fmt.Errorf("unknown debug mode %q: %w", r.Debug, core.ErrBadQuery)
	}
	return q, nil
}

// analyze runs one query under the request context, bounded by the configured
// query timeout and carrying the request's tenant and class when QoS is on.
func (s *Server) analyze(r *http.Request, q core.Query) (*core.Result, error) {
	r = s.qosContext(r)
	ctx := r.Context()
	if s.queryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.queryTimeout)
		defer cancel()
	}
	return s.backend.AnalyzeContext(ctx, q)
}

// writeAnalysisErr maps analysis failures to HTTP statuses: a tenant over its
// own rate budget is 429 + Retry-After (the caller's fault), admission
// rejections are retryable overload (503 + Retry-After), a degraded result
// (quarantined leaf pages with no substitute) is 503 too — the request was
// fine and a rewrite or scrub may restore the page — an unreachable backend
// tier is 503 as well, timeouts are 504, a vanished client gets the
// nginx-convention 499 (nobody reads it, but the access log and request
// counters do), and a query typed ErrBadQuery (or anything untyped) is a bad
// query. Deadline and cancellation outrank ErrUnavailable: a transport error
// downstream of an expired context is reported as the timeout it is.
func writeAnalysisErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, exec.ErrThrottled):
		// The tenant is over its own rate budget — 429, not 503: the server
		// is fine, this caller must slow down. The limiter attaches the
		// token-refill time as the back-off hint.
		secs := int(exec.RetryAfter(err, time.Second).Seconds())
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeErr(w, http.StatusTooManyRequests, err)
	case errors.Is(err, exec.ErrRejected):
		// The error chain may carry explicit back-off hints (a routed query
		// aggregates the max across rejecting shards); default to 1s.
		secs := int(exec.RetryAfter(err, time.Second).Seconds())
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeErr(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, core.ErrDegraded):
		writeErr(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded):
		writeErr(w, http.StatusGatewayTimeout, err)
	case errors.Is(err, context.Canceled):
		writeErr(w, 499, err)
	case errors.Is(err, core.ErrUnavailable):
		writeErr(w, http.StatusServiceUnavailable, err)
	default:
		writeErr(w, http.StatusBadRequest, err)
	}
}

func (s *Server) runAnalysis(w http.ResponseWriter, r *http.Request, req AnalysisRequest) {
	q, err := req.ToQuery()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.analyze(r, q)
	if err != nil {
		writeAnalysisErr(w, err)
		return
	}
	if req.OrderBy != "" {
		if err := sortRowsBy(res.Rows, req.OrderBy); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	}
	if req.Limit > 0 && len(res.Rows) > req.Limit {
		res.Rows = res.Rows[:req.Limit]
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleAnalysis(w http.ResponseWriter, r *http.Request) {
	var req AnalysisRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	s.runAnalysis(w, r, req)
}

// handleAnalysisGet supports simple dashboard links:
// /api/analysis?from=...&to=...&countries=a,b&group_by=country&granularity=day
func (s *Server) handleAnalysisGet(w http.ResponseWriter, r *http.Request) {
	qs := r.URL.Query()
	split := func(key string) []string {
		v := qs.Get(key)
		if v == "" {
			return nil
		}
		return strings.Split(v, ",")
	}
	req := AnalysisRequest{
		From:         qs.Get("from"),
		To:           qs.Get("to"),
		ElementTypes: split("element_types"),
		Countries:    split("countries"),
		RoadTypes:    split("road_types"),
		UpdateTypes:  split("update_types"),
		GroupBy:      split("group_by"),
		Granularity:  qs.Get("granularity"),
		Percentage:   qs.Get("percentage") == "true",
		OrderBy:      qs.Get("order_by"),
		Debug:        qs.Get("debug"),
	}
	if lim := qs.Get("limit"); lim != "" {
		n, err := strconv.Atoi(lim)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad limit: %w", err))
			return
		}
		req.Limit = n
	}
	s.runAnalysis(w, r, req)
}

// SampleRequest is the JSON form of a warehouse.SampleQuery.
type SampleRequest struct {
	From         string   `json:"from,omitempty"`
	To           string   `json:"to,omitempty"`
	MinLat       *float64 `json:"min_lat,omitempty"`
	MinLon       *float64 `json:"min_lon,omitempty"`
	MaxLat       *float64 `json:"max_lat,omitempty"`
	MaxLon       *float64 `json:"max_lon,omitempty"`
	ElementTypes []string `json:"element_types,omitempty"`
	UpdateTypes  []string `json:"update_types,omitempty"`
	RoadTypes    []string `json:"road_types,omitempty"`
	Countries    []string `json:"countries,omitempty"`
	N            int      `json:"n,omitempty"`
	Seed         int64    `json:"seed,omitempty"`
}

// SampleRecord is the JSON form of one sampled update.
type SampleRecord struct {
	ElementType string  `json:"element_type"`
	Date        string  `json:"date"`
	Country     string  `json:"country"`
	Lat         float64 `json:"lat"`
	Lon         float64 `json:"lon"`
	RoadType    string  `json:"road_type"`
	UpdateType  string  `json:"update_type"`
	ChangesetID int64   `json:"changeset_id"`
}

func toSampleRecord(r update.Record) SampleRecord {
	return SampleRecord{
		ElementType: r.ElementType.String(),
		Date:        r.Day.String(),
		Country:     geo.Default().Name(int(r.Country)),
		Lat:         r.Lat,
		Lon:         r.Lon,
		RoadType:    roads.Name(int(r.RoadType)),
		UpdateType:  r.UpdateType.String(),
		ChangesetID: r.ChangesetID,
	}
}

// ToQuery converts the request to a warehouse.SampleQuery.
func (r *SampleRequest) ToQuery() (warehouse.SampleQuery, error) {
	var q warehouse.SampleQuery
	var err error
	if r.From != "" {
		if q.From, err = temporal.ParseDay(r.From); err != nil {
			return q, fmt.Errorf("bad from: %w", err)
		}
	}
	if r.To != "" {
		if q.To, err = temporal.ParseDay(r.To); err != nil {
			return q, fmt.Errorf("bad to: %w", err)
		}
	}
	if r.MinLat != nil && r.MinLon != nil && r.MaxLat != nil && r.MaxLon != nil {
		q.Region = &geo.Rect{MinLat: *r.MinLat, MinLon: *r.MinLon, MaxLat: *r.MaxLat, MaxLon: *r.MaxLon}
	}
	for _, n := range r.ElementTypes {
		t, err := osm.ParseElementType(n)
		if err != nil {
			return q, err
		}
		q.ElementTypes = append(q.ElementTypes, t)
	}
	for _, n := range r.UpdateTypes {
		t, err := update.ParseType(n)
		if err != nil {
			return q, err
		}
		q.UpdateTypes = append(q.UpdateTypes, t)
	}
	for _, n := range r.RoadTypes {
		v, ok := roads.ByName(n)
		if !ok {
			return q, fmt.Errorf("unknown road type %q: %w", n, core.ErrBadQuery)
		}
		q.RoadTypes = append(q.RoadTypes, v)
	}
	for _, n := range r.Countries {
		v, ok := geo.Default().ByName(n)
		if !ok {
			return q, fmt.Errorf("unknown country %q: %w", n, core.ErrBadQuery)
		}
		q.Countries = append(q.Countries, v)
	}
	q.N = r.N
	q.Seed = r.Seed
	return q, nil
}

func (s *Server) handleSamples(w http.ResponseWriter, r *http.Request) {
	var req SampleRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	q, err := req.ToQuery()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	recs, err := s.sample(r, q)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	out := make([]SampleRecord, len(recs))
	for i, rec := range recs {
		out[i] = toSampleRecord(rec)
	}
	writeJSON(w, http.StatusOK, map[string]any{"samples": out})
}

// sampleContexter and changesetContexter are optional Backend upgrades: a
// backend whose warehouse lookups cross the network (the cluster router)
// implements them so client disconnects cancel the remote call. Local
// backends answer from disk fast enough that plumbing ctx through them isn't
// worth the churn.
type sampleContexter interface {
	SampleContext(ctx context.Context, q warehouse.SampleQuery) ([]update.Record, error)
}

type changesetContexter interface {
	ByChangesetContext(ctx context.Context, id int64) ([]update.Record, error)
}

func (s *Server) sample(r *http.Request, q warehouse.SampleQuery) ([]update.Record, error) {
	if sc, ok := s.backend.(sampleContexter); ok {
		return sc.SampleContext(r.Context(), q)
	}
	return s.backend.Sample(q)
}

func (s *Server) byChangeset(r *http.Request, id int64) ([]update.Record, error) {
	if cc, ok := s.backend.(changesetContexter); ok {
		return cc.ByChangesetContext(r.Context(), id)
	}
	return s.backend.ByChangeset(id)
}

// TimelapseFrame is one frame of the dashboard's timelapse: the per-country
// counts (or percentages) of one time bucket, ready to drive a choropleth.
type TimelapseFrame struct {
	Period    string             `json:"period"`
	Countries map[string]float64 `json:"countries"`
}

// handleTimelapse renders the paper's timelapse visualization data: the road
// network evolution as a frame per period, each frame a country → value map.
// Query parameters match GET /api/analysis (granularity defaults to month).
func (s *Server) handleTimelapse(w http.ResponseWriter, r *http.Request) {
	qs := r.URL.Query()
	split := func(key string) []string {
		v := qs.Get(key)
		if v == "" {
			return nil
		}
		return strings.Split(v, ",")
	}
	gran := qs.Get("granularity")
	if gran == "" || gran == "none" {
		gran = "month"
	}
	req := AnalysisRequest{
		From:         qs.Get("from"),
		To:           qs.Get("to"),
		ElementTypes: split("element_types"),
		Countries:    split("countries"),
		RoadTypes:    split("road_types"),
		UpdateTypes:  split("update_types"),
		GroupBy:      []string{"country"},
		Granularity:  gran,
		Percentage:   qs.Get("percentage") == "true",
	}
	q, err := req.ToQuery()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.analyze(r, q)
	if err != nil {
		writeAnalysisErr(w, err)
		return
	}
	var frames []TimelapseFrame
	index := map[string]int{}
	for _, row := range res.Rows {
		i, ok := index[row.Period]
		if !ok {
			i = len(frames)
			index[row.Period] = i
			frames = append(frames, TimelapseFrame{Period: row.Period, Countries: map[string]float64{}})
		}
		v := float64(row.Count)
		if req.Percentage {
			v = row.Percentage
		}
		frames[i].Countries[row.Country] = v
	}
	writeJSON(w, http.StatusOK, map[string]any{"frames": frames})
}

func (s *Server) handleChangeset(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad changeset id: %w", err))
		return
	}
	recs, err := s.byChangeset(r, id)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	out := make([]SampleRecord, len(recs))
	for i, rec := range recs {
		out[i] = toSampleRecord(rec)
	}
	writeJSON(w, http.StatusOK, map[string]any{"changeset": id, "updates": out})
}

// handleDashboard serves a minimal self-contained dashboard page that drives
// the JSON API.
func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, dashboardHTML)
}

const dashboardHTML = `<!DOCTYPE html>
<html>
<head><title>RASED — OSM Road Network Update Monitor</title>
<style>
body{font-family:sans-serif;margin:2em;max-width:70em}
table{border-collapse:collapse;margin-top:1em}
td,th{border:1px solid #ccc;padding:4px 10px;text-align:left}
input,select{margin:2px}
</style></head>
<body>
<h1>RASED</h1>
<p>Scalable dashboard for monitoring road network updates in OSM (reproduction).</p>
<form id="f">
  From <input name="from" placeholder="2021-01-01">
  To <input name="to" placeholder="2021-12-31">
  Countries <input name="countries" placeholder="United States,Germany">
  Group by <input name="group_by" placeholder="country,element_type">
  Granularity <select name="granularity">
    <option>none</option><option>day</option><option>week</option>
    <option>month</option><option>year</option></select>
  <button>Run</button>
</form>
<div id="stats"></div>
<table id="out"></table>
<script>
document.getElementById('f').onsubmit = async (ev) => {
  ev.preventDefault();
  const fd = new FormData(ev.target);
  const params = new URLSearchParams();
  for (const [k, v] of fd.entries()) if (v) params.set(k, v);
  params.set('limit', '100');
  const res = await fetch('/api/analysis?' + params.toString());
  const data = await res.json();
  const tbl = document.getElementById('out');
  tbl.innerHTML = '';
  if (data.error) { tbl.innerHTML = '<tr><td>' + data.error + '</td></tr>'; return; }
  document.getElementById('stats').textContent =
    'total=' + data.total + ' cubes=' + data.stats.cubes_fetched +
    ' disk=' + data.stats.disk_reads + ' elapsed=' + (data.stats.elapsed_nanos/1e6).toFixed(2) + 'ms';
  const cols = ['period','country','element_type','road_type','update_type','count','percentage'];
  tbl.innerHTML = '<tr>' + cols.map(c => '<th>' + c + '</th>').join('') + '</tr>' +
    (data.rows||[]).map(r => '<tr>' + cols.map(c => '<td>' + (r[c]??'') + '</td>').join('') + '</tr>').join('');
};
</script>
</body></html>
`
