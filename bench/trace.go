package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"rased"
	"rased/internal/core"
	"rased/internal/live"
	"rased/internal/osmgen"
	"rased/internal/pagestore"
	"rased/internal/server"
	"rased/internal/temporal"
	"rased/internal/tindex"
	"rased/internal/update"
	"rased/internal/warehouse"
)

// span is one timed call into a layer. Spans are recorded only from this
// directory's files, around calls into public functions of the program;
// spans inside the program are a later change (ROADMAP item 4).
type span struct {
	Run    string `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: none
	Req    int    `json:"req"`    // request the span belongs to, -1: none
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Pages  int    `json:"pages,omitempty"` // pager spans: pages read
	Bytes  int    `json:"bytes,omitempty"` // pager spans: bytes read
}

// recorder keeps spans in memory; they are written out when the bench ends.
// A nil recorder records nothing, which is how the untraced pass runs the
// same code.
type recorder struct {
	run    string
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

type spanKey struct{}

// at is the position in the span tree a context carries.
type at struct{ id, req int }

// begin opens a span under the one ctx carries and returns the context for
// the callee and the function that closes the span.
func (rc *recorder) begin(ctx context.Context, name string, req int) (context.Context, func(pages, bytes int)) {
	if rc == nil {
		return ctx, func(int, int) {}
	}
	parent := at{req: req}
	if p, ok := ctx.Value(spanKey{}).(at); ok {
		parent = p
	}
	now := time.Since(rc.origin).Nanoseconds()
	rc.mu.Lock()
	id := len(rc.spans) + 1
	rc.spans = append(rc.spans, span{Run: rc.run, ID: id, Parent: parent.id, Req: parent.req, Name: name, Start: now})
	rc.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, at{id: id, req: parent.req}), func(pages, bytes int) {
		end := time.Since(rc.origin).Nanoseconds()
		rc.mu.Lock()
		s := &rc.spans[id-1]
		s.End, s.Pages, s.Bytes = end, pages, bytes
		rc.mu.Unlock()
	}
}

// tracedPager wraps a page store, overriding only the three read methods.
type tracedPager struct {
	pagestore.Pager
	rec **recorder // the run swaps recorders between passes
}

func (tp tracedPager) ReadPage(id int, buf []byte) error {
	_, end := (*tp.rec).begin(context.Background(), "pager", -1)
	err := tp.Pager.ReadPage(id, buf)
	end(1, len(buf))
	return err
}

func (tp tracedPager) ReadPageCtx(ctx context.Context, id int, buf []byte) error {
	_, end := (*tp.rec).begin(ctx, "pager", -1)
	err := tp.Pager.ReadPageCtx(ctx, id, buf)
	end(1, len(buf))
	return err
}

func (tp tracedPager) ReadPagesCtx(ctx context.Context, id, n int, buf []byte) error {
	_, end := (*tp.rec).begin(ctx, "pager", -1)
	err := tp.Pager.ReadPagesCtx(ctx, id, n, buf)
	end(n, len(buf))
	return err
}

// tracedBackend is the server.Backend of the in-process runs: analysis goes
// to the engine under an "engine" span, the rest is not served.
type tracedBackend struct {
	eng *core.Engine
	ix  *tindex.Index
	rec **recorder
}

var errAnalysisOnly = errors.New("bench backend serves analysis only")

func (b tracedBackend) AnalyzeContext(ctx context.Context, q core.Query) (*core.Result, error) {
	ctx, end := (*b.rec).begin(ctx, "engine", -1)
	defer end(0, 0)
	return b.eng.AnalyzeContext(ctx, q)
}
func (b tracedBackend) Sample(warehouse.SampleQuery) ([]update.Record, error) {
	return nil, errAnalysisOnly
}
func (b tracedBackend) ByChangeset(int64) ([]update.Record, error) { return nil, errAnalysisOnly }
func (b tracedBackend) Coverage() (lo, hi temporal.Day, ok bool)   { return b.ix.Coverage() }
func (b tracedBackend) Health() core.Health                        { return b.eng.Health() }

// inproc is one deployment opened inside the bench process the way
// rased.Open does it, plus the pager wrapper and the bench-owned backend.
type inproc struct {
	ix   *tindex.Index
	eng  *core.Engine
	srv  *server.Server
	rec  *recorder // current pass's recorder, nil when untraced
	logf *os.File
}

func openInproc(d *deployment, logPath string) (*inproc, error) {
	ip := &inproc{}
	wrap := func(p pagestore.Pager) pagestore.Pager { return tracedPager{Pager: p, rec: &ip.rec} }
	ix, err := tindex.Open(d.dir, d.schema, tindex.WithStoreWrapper(wrap), tindex.WithColdStoreWrapper(wrap))
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(ix, rased.DefaultOptions())
	if err != nil {
		ix.Close()
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		ix.Close()
		return nil, err
	}
	// The shipped server logs every request at Debug to stderr; keep that cost.
	logger := slog.New(slog.NewTextHandler(logf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	ip.ix, ip.eng, ip.logf = ix, eng, logf
	ip.srv = server.New(tracedBackend{eng: eng, ix: ix, rec: &ip.rec}, server.WithLogger(logger))
	return ip, nil
}

func (ip *inproc) close() {
	ip.ix.Close()
	ip.logf.Close()
}

// served is what one in-process request produced.
type served struct {
	lat    time.Duration
	size   int
	result core.Result // decoded only in the traced pass
}

// serve runs one request through ServeHTTP under an "http" span.
func (ip *inproc) serve(body []byte, req int, decode bool) (served, error) {
	hr := httptest.NewRequest(http.MethodPost, "/api/analysis", bytes.NewReader(body))
	hr.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	ctx, end := ip.rec.begin(hr.Context(), "http", req)
	hr = hr.WithContext(ctx)
	t0 := time.Now()
	ip.srv.ServeHTTP(w, hr)
	lat := time.Since(t0)
	end(0, 0)
	out := served{lat: lat, size: w.Body.Len()}
	if w.Code != http.StatusOK {
		return out, fmt.Errorf("in-process request %d answered %d: %s", req, w.Code, w.Body.String())
	}
	if decode {
		if err := json.Unmarshal(w.Body.Bytes(), &out.result); err != nil {
			return out, fmt.Errorf("in-process request %d: %w", req, err)
		}
	}
	return out, nil
}

// folder feeds the live pipeline the same simulated replication stream the
// server's -live mode generates, one chunk at a time, timing each fold.
type folder struct {
	pipe   *live.Pipeline
	stream *osmgen.DiffStream
	foldMS []float64
}

func newFolder(ip *inproc, d *deployment) *folder {
	gcfg := osmgen.DefaultConfig()
	gcfg.Start = d.hi + 1
	return &folder{
		pipe: live.NewPipeline(ip.ix, live.Config{
			MaxCountry: len(d.schema.Countries), MaxRoad: len(d.schema.RoadTypes), Engine: ip.eng,
		}),
		stream: osmgen.NewDiffStream(gcfg, 60),
	}
}

func (f *folder) fold() error {
	df := f.stream.Next()
	c := &live.Chunk{Day: df.Day, Seq: df.Seq, Of: df.Of, Last: df.Last, Change: df.Change, Changesets: df.Changesets, Emitted: time.Now()}
	t0 := time.Now()
	err := f.pipe.FoldChunk(c)
	f.foldMS = append(f.foldMS, ms(time.Since(t0)))
	return err
}

// foldEvery is how many traced live.mixed requests pass between two folds.
const foldEvery = 50

// traced is the per-layer run: the fixed request prefix in-process, untraced
// and traced, then the probes, then a one-client pass against the real server
// for what only a process shows (client latency, RSS, /metrics), and last the
// fold path, which mutates the deployment.
func (r *runner) traced(ctx context.Context, w workload, wr *workloadResult, tag string) error {
	dir := filepath.Join(r.scratch, tag+"-dep")
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	dep, err := buildDeployment(dir, r.sc.days)
	if err != nil {
		return err
	}
	reqs, err := w.gen(r.seed, dep, r.sc.traceOps)
	if err != nil {
		return err
	}
	reqs = reqs[:r.sc.traceOps]
	for _, m := range perLayer {
		wr.set(m.Name, 0)
	}
	wr.set("import_updates_per_s", float64(dep.report.Records+dep.report.DroppedRecords)/dep.buildS)
	wr.set("index_bytes_per_update", float64(dep.report.IndexBytes)/float64(max(1, dep.report.Records)))
	wr.Properties["trace_sha256"] = traceSHA(reqs)
	wr.Properties["requests"] = len(reqs)
	wr.Properties["repeat_share"] = repeatShare(reqs)

	var orc *oracle
	if w.readOnly {
		if orc, err = loadOracle(dep); err != nil {
			return err
		}
	}
	// In-process first: the real live server mutates the directory.
	ip, err := openInproc(dep, filepath.Join(r.scratch, tag+"-inproc.log"))
	if err != nil {
		return err
	}
	tr, err := r.inprocPasses(w, wr, ip, dep, reqs, tag, orc)
	ip.close()
	if err != nil {
		return err
	}

	clientP50, err := r.realPass(ctx, w, wr, dep, reqs, tag)
	if err != nil {
		return err
	}
	wr.set("net_gap_us", clientP50-tr.untracedP50)

	foldMS := tr.foldMS
	if w.role != roleLive {
		if foldMS, err = r.foldProbe(dep, tag); err != nil {
			return err
		}
	}
	sort.Float64s(foldMS)
	wr.set("fold_ms_p50", percentile(foldMS, 0.50))
	wr.set("fold_ms_p95", percentile(foldMS, 0.95))
	wr.Properties["folds_timed"] = len(foldMS)
	if r.sc.gates {
		traceGates(w, wr)
	}
	return ctx.Err()
}

// realPass sends the fixed prefix from one client to the real single-node
// server (started in the workload's role) and, for a routed workload, to the
// cluster too. It returns the single-node client p50 in µs.
func (r *runner) realPass(ctx context.Context, w workload, wr *workloadResult, dep *deployment, reqs []request, tag string) (float64, error) {
	role := w.role
	if role == roleRouted {
		role = roleSingle
	}
	one := func(role, tag string) (p50 float64, d promSample, secs float64, err error) {
		t, err := startTier(ctx, r.bin, dep.dir, role, tag)
		if err != nil {
			return 0, nil, 0, err
		}
		defer t.stop()
		wr.ServerArgv = append(wr.ServerArgv, t.argv()...)
		before, err := scrapeAll(t)
		if err != nil {
			return 0, nil, 0, err
		}
		lr := runLoad(ctx, t.public.addr, reqs, 0, 1, time.Hour, 0, len(reqs))
		after, err := scrapeAll(t)
		if err != nil {
			return 0, nil, 0, err
		}
		wr.Attempted += lr.attempted
		wr.Failed += lr.failed
		if lr.failed > 0 {
			wr.fail("%d of %d requests to the %s server failed", lr.failed, lr.attempted, role)
		}
		if role != roleRouted {
			wr.set("server_rss_mb", t.public.rssMB())
		}
		var lats []float64
		for _, rp := range lr.replies() {
			lats = append(lats, us(rp.lat))
		}
		return median(lats), delta(before, after), lr.elapsed.Seconds(), nil
	}
	p50, d, secs, err := one(role, tag+"-real")
	if err != nil {
		return 0, err
	}
	wr.Properties["client_p50_us"] = p50
	wr.set("admit_wait_us", 1e6*d.mean("rased_qos_admission_wait_seconds"))
	if w.role == roleLive {
		wr.set("epochs_per_s", d.sum("rased_live_folds_total")/secs)
	}
	if w.role == roleRouted {
		routed, rd, _, err := one(roleRouted, tag+"-routed")
		if err != nil {
			return 0, err
		}
		wr.Properties["routed_client_p50_us"] = routed
		wr.set("hop_overhead_us", routed-p50)
		wr.set("subplans_per_query", rd.sum("rased_cluster_router_rpcs_total")/max(1, rd.sum("rased_cluster_router_queries_total")))
		wr.set("hedges_fired", rd.sum("rased_cluster_router_hedges_fired_total"))
	}
	return p50, nil
}

// reqTrace is what the traced pass learned about one request.
type reqTrace struct {
	http, engine, pager int64 // ns; pager is the part of engine its reads cover
	calls, pages, bytes int
	stages              map[string]int64
	cubes, hits, disk   int
	missed              []temporal.Period // in plan order
	all                 []temporal.Period
	rcHit               bool
	size                int
}

// traceResult carries the traced pass's findings to the probes and gates.
type traceResult struct {
	untracedP50 float64 // µs
	reqs        []reqTrace
	foldMS      []float64 // live workloads: the folds made between requests
}

// foldProbe times sc.folds FoldChunk calls on a workload that does not fold
// by itself.
func (r *runner) foldProbe(dep *deployment, tag string) ([]float64, error) {
	ip, err := openInproc(dep, filepath.Join(r.scratch, tag+"-folds.log"))
	if err != nil {
		return nil, err
	}
	defer ip.close()
	fd := newFolder(ip, dep)
	for i := 0; i < r.sc.folds; i++ {
		if err := fd.fold(); err != nil {
			return nil, err
		}
	}
	return fd.foldMS, nil
}

// inprocPasses runs the fixed prefix twice in-process — untraced, then with
// spans and debug=trace — and turns the spans into the per-layer numbers.
func (r *runner) inprocPasses(w workload, wr *workloadResult, ip *inproc, dep *deployment, reqs []request, tag string, orc *oracle) (*traceResult, error) {
	var fd *folder
	if w.role == roleLive {
		fd = newFolder(ip, dep)
	}
	pass := func(rec *recorder, bodies [][]byte, decode bool) ([]served, error) {
		ip.rec = rec
		defer func() { ip.rec = nil }()
		out := make([]served, len(bodies))
		for i, body := range bodies {
			if fd != nil && i%foldEvery == foldEvery-1 {
				if err := fd.fold(); err != nil {
					return nil, err
				}
			}
			s, err := ip.serve(body, i, decode)
			if err != nil {
				return nil, err
			}
			out[i] = s
		}
		return out, nil
	}
	plain := make([][]byte, len(reqs))
	debug := make([][]byte, len(reqs))
	for i, rq := range reqs {
		plain[i] = rq.body
		dr := rq.req
		dr.Debug = "trace"
		body, err := json.Marshal(dr)
		if err != nil {
			return nil, err
		}
		debug[i] = body
	}

	untraced, err := pass(nil, plain, false)
	if err != nil {
		return nil, err
	}
	rec := &recorder{run: tag + ":" + w.name, origin: time.Now()}
	traced, err := pass(rec, debug, true)
	if err != nil {
		return nil, err
	}
	for i := 0; orc != nil && i < len(reqs); i += checkEvery {
		wr.Checked++
		if err := orc.compare(&reqs[i].req, &traced[i].result); err != nil {
			wr.Failed++
			wr.fail("in-process request %d: %v", i, err)
		}
	}
	p50 := func(ss []served) float64 {
		lats := make([]float64, len(ss))
		for i, s := range ss {
			lats[i] = us(s.lat)
		}
		return median(lats)
	}
	tr := &traceResult{untracedP50: p50(untraced), reqs: make([]reqTrace, len(reqs))}
	wr.Properties["inproc_untraced_p50_us"] = tr.untracedP50
	wr.Properties["inproc_traced_p50_us"] = p50(traced)
	wr.set("trace_overhead_ratio", p50(traced)/tr.untracedP50)

	if err := tr.fromSpans(rec.spans, traced); err != nil {
		return nil, err
	}
	for i := range tr.reqs {
		tr.reqs[i].size = untraced[i].size // what a client gets: no debug=trace payload
	}
	// The probes record their own spans; keep them in the same file.
	ip.rec = rec
	pr, err := runProbes(ip, dep, reqs, tr, w.role == roleLive)
	ip.rec = nil
	if err != nil {
		return nil, err
	}
	r.spans = append(r.spans, rec.spans...)
	tr.report(wr, pr)

	if fd != nil {
		tr.foldMS = fd.foldMS
	}
	return tr, nil
}

// fromSpans folds the span tree and the responses' own traces into one
// record per request.
func (tr *traceResult) fromSpans(spans []span, traced []served) error {
	type node struct {
		lo, hi int64
		reads  []interval
	}
	engines := map[int]*node{} // engine span id -> its reads
	byReq := map[int]*node{}
	for _, s := range spans {
		if s.Req < 0 || s.Req >= len(tr.reqs) {
			continue
		}
		rt := &tr.reqs[s.Req]
		switch s.Name {
		case "http":
			rt.http = s.End - s.Start
		case "engine":
			rt.engine = s.End - s.Start
			n := &node{lo: s.Start, hi: s.End}
			engines[s.ID] = n
			byReq[s.Req] = n
		case "pager":
			// Reads are direct children of the engine span: the engine hands
			// its context down to the page store.
			n, ok := engines[s.Parent]
			if !ok {
				return fmt.Errorf("trace: pager span %d has no engine parent", s.ID)
			}
			n.reads = append(n.reads, interval{s.Start, s.End})
			rt.calls++
			rt.pages += s.Pages
			rt.bytes += s.Bytes
		}
	}
	for i := range tr.reqs {
		rt := &tr.reqs[i]
		if rt.http == 0 || rt.engine == 0 {
			return fmt.Errorf("trace: request %d has no http or engine span", i)
		}
		if n := byReq[i]; n != nil {
			rt.pager = covered(n.lo, n.hi, n.reads)
		}
		res := traced[i].result
		rt.cubes, rt.hits, rt.disk = res.Stats.CubesFetched, res.Stats.CacheHits, res.Stats.DiskReads
		rt.rcHit = res.Stats.ResultCacheHit
		rt.stages = map[string]int64{}
		if res.Trace == nil {
			if !rt.rcHit {
				return fmt.Errorf("trace: request %d came back without debug=trace output", i)
			}
			continue
		}
		for _, st := range res.Trace.Stages {
			rt.stages[st.Name] += st.Nanos
		}
		for _, b := range res.Trace.Buckets {
			for _, pp := range b.Periods {
				p, err := parsePeriod(pp.Level, pp.Period)
				if err != nil {
					return err
				}
				rt.all = append(rt.all, p)
				if !pp.Cached {
					rt.missed = append(rt.missed, p)
				}
			}
		}
	}
	return nil
}

// parsePeriod inverts temporal.Period.String for the level named.
func parsePeriod(level, s string) (temporal.Period, error) {
	var y, m, k int
	switch level {
	case temporal.Daily.String():
		d, err := temporal.ParseDay(s)
		return temporal.DayPeriod(d), err
	case temporal.Weekly.String():
		if _, err := fmt.Sscanf(s, "%d-%d/w%d", &y, &m, &k); err != nil {
			return temporal.Period{}, fmt.Errorf("trace: bad weekly period %q", s)
		}
		p, _ := temporal.WeekPeriod(temporal.NewDay(y, time.Month(m), 7*(k-1)+1))
		return p, nil
	case temporal.Monthly.String():
		if _, err := fmt.Sscanf(s, "%d-%d", &y, &m); err != nil {
			return temporal.Period{}, fmt.Errorf("trace: bad monthly period %q", s)
		}
		return temporal.MonthPeriod(temporal.NewDay(y, time.Month(m), 1)), nil
	case temporal.Yearly.String():
		if _, err := fmt.Sscanf(s, "%d", &y); err != nil {
			return temporal.Period{}, fmt.Errorf("trace: bad yearly period %q", s)
		}
		return temporal.YearPeriod(temporal.NewDay(y, time.January, 1)), nil
	}
	return temporal.Period{}, fmt.Errorf("trace: unknown level %q", level)
}

// report turns per-request records and probe results into the layer table
// and the per-layer metrics. Shares of the http span come from measured time
// only: spans recorded here and the engine's own stage clock. The engine's
// "aggregate" stage minus its page reads is one measured block — fetch
// fan-out, cache lookups, index fetch, page verification and decode, kernels
// and the merge run inside the program where no span of ours reaches. The
// probes price the public entry points of three of those layers on the
// trace's own data; the block is split among them in the probes' proportion,
// which is an estimate and is labelled as one.
func (tr *traceResult) report(wr *workloadResult, pr *probeResult) {
	n := float64(len(tr.reqs))
	var http, engine, pager, compile, build, plan, aggregate, size float64
	var fetchEst, decodeEst, aggEst float64
	var calls, pages, bytes, cubes, hits, missed, rcHits int
	distinct := map[temporal.Period]bool{}
	for i := range tr.reqs {
		rt := &tr.reqs[i]
		http += float64(rt.http)
		engine += float64(rt.engine)
		pager += float64(rt.pager)
		compile += float64(rt.stages["compile_filter"])
		build += float64(rt.stages["build_rows"])
		plan += float64(rt.stages["plan"])
		aggregate += float64(rt.stages["aggregate"])
		size += float64(rt.size)
		calls += rt.calls
		pages += rt.pages
		bytes += rt.bytes
		cubes += rt.cubes
		hits += rt.hits
		missed += len(rt.missed)
		if rt.rcHit {
			rcHits++
		}
		for _, p := range rt.all {
			distinct[p] = true
		}
		fetchEst += pr.fetchNSPerCube * float64(len(rt.missed))
		decodeEst += pr.decodeNSPerPage * float64(rt.pages)
		aggEst += pr.aggNS(i, rt.all)
	}
	perReqUS := func(ns float64) float64 { return ns / n / 1e3 }
	share := func(ns float64) float64 { return ns / http }
	block := max(0, aggregate-pager)
	rest := engine - compile - plan - aggregate - build
	split := func(est float64) float64 {
		if sum := fetchEst + decodeEst + aggEst; sum > 0 {
			return block * est / sum
		}
		return 0
	}
	wr.Layers = []layerRow{
		{"http (whole request)", len(tr.reqs), perReqUS(http), 1, "span"},
		{"server", len(tr.reqs), perReqUS(http - engine), share(http - engine), "span self: http - engine"},
		{"core.compile_filter", len(tr.reqs), perReqUS(compile), share(compile), "stage"},
		{"plan", len(tr.reqs), perReqUS(plan), share(plan), "stage"},
		{"pagestore", calls, perReqUS(pager), share(pager), "span"},
		{"fetch+decode+aggregate", cubes, perReqUS(block), share(block), "stage - span: aggregate stage - page reads"},
		{"  tindex", missed, perReqUS(split(fetchEst)), share(split(fetchEst)), "probe share of the block"},
		{"  cube.decode", pages, perReqUS(split(decodeEst)), share(split(decodeEst)), "probe share of the block"},
		{"  cube.aggregate", cubes, perReqUS(split(aggEst)), share(split(aggEst)), "probe share of the block"},
		{"core.build_rows", len(tr.reqs), perReqUS(build), share(build), "stage"},
		{"engine remainder", len(tr.reqs), perReqUS(rest), share(rest), "unattributed: engine - its stages"},
	}
	attributed := 1 - max(0, rest)/http
	wr.set("attributed_share", attributed)
	if attributed < 0.9 {
		wr.Notes = append(wr.Notes, fmt.Sprintf("%.1f%% of the http span is unattributed: engine time outside its four stages (admission, result-cache probe, aggregation compile, trace assembly)", 100*(1-attributed)))
	}
	wr.set("server_self_us", perReqUS(http-engine))
	wr.set("resp_bytes_per_req", size/n)
	wr.set("result_cache_hit_share", float64(rcHits)/n)
	wr.set("engine_self_us", perReqUS(engine-pager))
	wr.set("compile_filter_us", perReqUS(compile))
	wr.set("build_rows_us", perReqUS(build))
	wr.set("plan_us", perReqUS(plan))
	wr.set("cubes_per_query", float64(cubes)/n)
	wr.set("cube_hit_share", float64(hits)/float64(max(1, cubes)))
	wr.set("fetch_us_per_cube", pr.fetchNSPerCube/1e3)
	wr.set("run_len", pr.runLen)
	wr.set("pager_read_us", perReqUS(pager))
	wr.set("read_calls_per_query", float64(calls)/n)
	wr.set("pages_per_query", float64(pages)/n)
	wr.set("bytes_read_per_query", float64(bytes)/n)
	wr.set("decode_us_per_page", pr.decodeNSPerPage/1e3)
	wr.set("agg_us_per_cube", pr.aggMeanNS/1e3)
	wr.Properties["distinct_cubes"] = len(distinct)
	wr.Properties["plan_probe_us"] = pr.planNS / 1e3
	wr.Properties["http_span_us"] = perReqUS(http)
	wr.Properties["engine_span_us"] = perReqUS(engine)
	wr.Properties["aggregate_stage_us"] = perReqUS(aggregate)
	// What the probed entry points would cost on this trace, against the
	// block they were measured to fill: above 1 the probed path (pooled,
	// run-coalesced, dense kernels) is dearer than the one the engine takes.
	if block > 0 {
		wr.Properties["probe_to_block_ratio"] = (fetchEst + decodeEst + aggEst) / block
	}
}

// cacheSlots is the default cube cache size the workloads are sized against.
const cacheSlots = 512

// traceGates checks that the workloads separate the layers as designed.
func traceGates(w workload, wr *workloadResult) {
	hit := wr.Metrics["cube_hit_share"].Value
	switch w.name {
	case "dash.recent":
		if hit < 0.9 {
			wr.fail("cube_hit_share %.3f on dash.recent, want >= 0.9", hit)
		}
	case "dash.history", "routed.history":
		if hit > 0.5 {
			wr.fail("cube_hit_share %.3f on %s, want <= 0.5", hit, w.name)
		}
		if n := wr.Properties["distinct_cubes"].(int); 2*n < 3*cacheSlots {
			wr.fail("%d distinct cubes on %s, want >= 1.5x the cache's %d slots", n, w.name, cacheSlots)
		}
	case "export.scan":
		if rs := wr.Properties["repeat_share"].(float64); rs > 0.05 {
			wr.fail("repeat_share %.3f on export.scan, want <= 0.05", rs)
		}
	}
}
