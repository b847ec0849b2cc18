package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runner holds what every run of one invocation shares.
type runner struct {
	sc      scale
	seed    int64
	window  time.Duration
	scratch string
	bin     string
	runs    int    // names scratch sub-directories
	spans   []span // every traced run's spans, written to trace.json at exit
}

// checkEvery is the oracle's sampling: every 50th request is answered twice.
const checkEvery = 10

// genRate bounds how many requests a second of load can consume; traces are
// generated this long so they never wrap.
const genRate = 6000

func (r *runner) runOne(ctx context.Context, w workload, traced bool) (*workloadResult, error) {
	r.runs++
	wr := &workloadResult{
		Name: w.name, Why: w.why, Traced: traced, Correct: true,
		Metrics: map[string]metricValue{}, Properties: map[string]any{},
	}
	tag := fmt.Sprintf("run%02d", r.runs)
	var err error
	if traced {
		err = r.traced(ctx, w, wr, tag)
	} else {
		err = r.untraced(ctx, w, wr, tag)
	}
	return wr, err
}

// setUp builds the deployment into an empty directory and starts the
// single-node server on it until /healthz answers: what an operator waits
// for before the first query. It runs sc.setupReps times and reports the
// median, because one build's time swings with the sandbox's disk; the last
// deployment is kept for the run.
func (r *runner) setUp(ctx context.Context, wr *workloadResult, tag string) (*deployment, error) {
	var setups, builds, readies []float64
	var dep *deployment
	for i := 0; i < r.sc.setupReps; i++ {
		dir := filepath.Join(r.scratch, fmt.Sprintf("%s-dep%d", tag, i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		d, err := buildDeployment(dir, r.sc.days)
		if err != nil {
			return nil, err
		}
		t, err := startTier(ctx, r.bin, dir, roleSingle, fmt.Sprintf("%s-setup%d", tag, i))
		if err != nil {
			return nil, err
		}
		total := time.Since(start).Seconds()
		t.stop()
		setups = append(setups, total)
		builds = append(builds, d.buildS)
		readies = append(readies, total-d.buildS)
		if i < r.sc.setupReps-1 {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		dep = d
	}
	wr.set("setup_s", median(setups))
	wr.Properties["build_s"] = median(builds)
	wr.Properties["ready_s"] = median(readies)
	wr.Properties["setup_samples_s"] = setups
	wr.Properties["cube_pages"] = dep.report.CubePages
	wr.Properties["index_bytes"] = dep.report.IndexBytes
	wr.Properties["updates_in_schema"] = dep.report.Records
	wr.Properties["coverage"] = dep.lo.String() + ".." + dep.hi.String()
	return dep, nil
}

// untraced measures one workload end to end against the real server.
func (r *runner) untraced(ctx context.Context, w workload, wr *workloadResult, tag string) error {
	last := time.Now()
	phases := map[string]float64{} // where the run's own wall time went
	mark := func(name string) {
		phases[name] = time.Since(last).Seconds()
		last = time.Now()
	}
	wr.Properties["phase_s"] = phases
	dep, err := r.setUp(ctx, wr, tag)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dep.dir)
	mark("setup")
	var orc *oracle
	if w.readOnly {
		if orc, err = loadOracle(dep); err != nil {
			return err
		}
	}
	total := r.sc.warm + r.window
	reqs, err := w.gen(r.seed, dep, max(r.sc.traceOps, int(total.Seconds()*genRate)+1))
	if err != nil {
		return err
	}

	mark("oracle_and_trace")
	t, err := startTier(ctx, r.bin, dep.dir, w.role, tag)
	if err != nil {
		return err
	}
	defer t.stop()
	wr.ServerArgv = t.argv()
	clients := runtime.NumCPU()
	mark("start_servers")
	warm := runLoad(ctx, t.public.addr, reqs, 0, clients, r.sc.warm, 0, 0)
	before, err := scrapeAll(t)
	if err != nil {
		return err
	}
	lr := runLoad(ctx, t.public.addr, reqs, warm.next, clients, r.window, checkEvery, 0)
	after, err := scrapeAll(t)
	if err != nil {
		return err
	}
	rss := t.public.rssMB()
	if err := ctx.Err(); err != nil {
		return err
	}
	mark("warmup_and_window")

	replies := lr.replies()
	wr.Attempted = lr.attempted
	wr.Failed = lr.failed
	if orc != nil {
		for _, rp := range replies {
			if rp.body == nil {
				continue
			}
			wr.Checked++
			if err := orc.check(&reqs[rp.idx%len(reqs)].req, rp.body); err != nil {
				wr.Failed++
				wr.fail("request %d: %v", rp.idx, err)
			}
		}
	} else {
		checkLiveProbes(wr, lr, reqs)
	}
	if wr.Failed > 0 {
		wr.fail("%d of %d requests failed", wr.Failed, wr.Attempted)
	}
	mark("check_answers")

	// Latency is every 200 of the window; throughput counts the correct ones
	// that completed inside it (a client's last request may end after it).
	lats := make([]float64, 0, len(replies))
	inWindow := 0
	for _, rp := range replies {
		lats = append(lats, ms(rp.lat))
		if rp.end <= r.window {
			inWindow++
		}
	}
	sort.Float64s(lats)
	wr.set("qps", float64(inWindow-(wr.Failed-lr.failed))/r.window.Seconds())
	wr.set("p50_ms", percentile(lats, 0.50))
	wr.set("p99_ms", percentile(lats, 0.99))
	if r.sc.gates {
		if tail := supportedTail(len(lats)); tail < 0.99 {
			wr.fail("%d samples support at most p%g, not p99", len(lats), tail*100)
		}
		if w.readOnly && wr.Checked < 100 {
			wr.fail("oracle checked %d responses, fewer than 100", wr.Checked)
		}
		if lr.wrapped {
			wr.fail("trace of %d requests wrapped", len(reqs))
		}
	}

	issued := reqs[:min(lr.next, len(reqs))]
	wr.Properties["requests"] = lr.next
	wr.Properties["latency_samples"] = len(lats)
	wr.Properties["tail_supported"] = fmt.Sprintf("p%g", supportedTail(len(lats))*100)
	wr.Properties["repeat_share"] = repeatShare(issued)
	wr.Properties["trace_sha256"] = traceSHA(reqs[:min(r.sc.traceOps, len(reqs))])
	wr.Properties["clients"] = clients
	wr.Properties["window_s"] = r.window.Seconds()
	wr.Properties["warmup_s"] = r.sc.warm.Seconds()
	wr.Properties["fail_share"] = float64(wr.Failed) / float64(max(1, wr.Attempted))
	d := delta(before, after)
	r.counters(wr, replies, d, rss)
	if w.role == roleLive {
		scheduled := r.window.Seconds() / liveInterval.Seconds()
		published := d.sum("rased_live_folds_total")
		wr.Properties["folds_scheduled"] = scheduled
		wr.Properties["folds_published"] = published
		if r.sc.gates && published < liveFoldShare*scheduled {
			wr.fail("published %.0f of %.0f scheduled folds, under %.0f%%", published, scheduled, 100*liveFoldShare)
		}
	}
	return nil
}

// scrapeAll merges the /metrics of every process of the tier; the router's
// and the shards' series do not collide because only shards have an engine.
func scrapeAll(t *tier) (promSample, error) {
	all := promSample{}
	for _, p := range t.procs {
		s, err := scrape(p.addr)
		if err != nil {
			return nil, err
		}
		for k, v := range s {
			all[k] += v
		}
	}
	return all, nil
}

// counters reports what the responses' stats blocks and the servers'
// /metrics deltas over the timed window say about each layer. They are
// counts from a concurrent run, so they vary a little from run to run; the
// traced run has the exact ones.
func (r *runner) counters(wr *workloadResult, replies []reply, d promSample, rssMB float64) {
	n := float64(max(1, len(replies)))
	var cubes, hits, rcHits, bytes float64
	for _, rp := range replies {
		cubes += float64(rp.stats.CubesFetched)
		hits += float64(rp.stats.CacheHits)
		bytes += float64(rp.size)
		if rp.stats.ResultCacheHit {
			rcHits++
		}
	}
	secs := r.window.Seconds()
	queries := max(1, d.sum("rased_queries_total"))
	c := map[string]float64{
		"server.resp_bytes_per_req":      bytes / n,
		"server.rss_mb":                  rssMB,
		"exec.result_cache_hit_share":    rcHits / n,
		"exec.admit_wait_us":             1e6 * d.mean("rased_qos_admission_wait_seconds"),
		"exec.singleflight_shared":       d.sum("rased_exec_singleflight_shared_total"),
		"plan.cubes_per_query":           cubes / n,
		"cache.cube_hit_share":           hits / max(1, cubes),
		"pagestore.read_calls_per_query": d.sum("rased_pagestore_read_latency_seconds_count", `store="cubes`) / queries,
		"pagestore.pages_per_query":      d.sum("rased_pagestore_reads_total", `store="cubes`) / queries,
		"pagestore.read_us_per_call":     1e6 * d.mean("rased_pagestore_read_latency_seconds", `store="cubes`),
		"core.engine_us_per_query":       1e6 * d.mean("rased_query_latency_seconds"),
		"server.handler_us_per_req":      1e6 * d.mean("rased_http_request_latency_seconds", `route="/api/analysis"`),
		"tindex.read_retries":            d.sum("rased_tindex_read_retries_total"),
		"tindex.checksum_failures":       d.sum("rased_tindex_checksum_failures_total"),
		"core.query_errors":              d.sum("rased_query_errors_total"),
		"core.degraded_queries":          d.sum("rased_degraded_queries_total"),
		"cluster.subplans_per_query":     d.sum("rased_cluster_router_rpcs_total") / max(1, d.sum("rased_cluster_router_queries_total")),
		"cluster.hedges_fired":           d.sum("rased_cluster_router_hedges_fired_total"),
		"cluster.failovers":              d.sum("rased_cluster_router_failovers_total"),
		"live.epochs_per_s":              d.sum("rased_live_folds_total") / secs,
		"live.ingest_lag_ms_mean":        1e3 * d.mean("rased_live_ingest_lag_seconds"),
	}
	if lagged := d.sum("rased_live_ingest_lag_seconds_count"); lagged > 0 {
		c["live.ingest_lag_over_100ms_share"] = 1 - d.sum("rased_live_ingest_lag_seconds_bucket", `le="0.1"`)/lagged
	}
	wr.Counters = c
}

// liveFoldShare is the share of scheduled folds live.mixed must publish.
const liveFoldShare = 0.95

// checkLiveProbes holds live.mixed to the epoch contract: a window closed
// before the live edge always has the same total, and a window ending past
// the edge never loses updates from one reply of a client to its next.
func checkLiveProbes(wr *workloadResult, lr *loadResult, reqs []request) {
	closed := int64(-1)
	for _, rs := range lr.byClient {
		edge := int64(-1)
		for _, rp := range rs {
			kind := reqs[rp.idx%len(reqs)].probe
			if kind == probeNone || rp.body == nil {
				continue
			}
			var got struct {
				Total int64 `json:"total"`
			}
			if err := json.Unmarshal(rp.body, &got); err != nil {
				wr.Failed++
				wr.fail("request %d: undecodable probe reply: %v", rp.idx, err)
				continue
			}
			wr.Checked++
			switch kind {
			case probeClosed:
				if closed >= 0 && got.Total != closed {
					wr.Failed++
					wr.fail("request %d: closed-history total changed from %d to %d", rp.idx, closed, got.Total)
				}
				closed = got.Total
			case probeEdge:
				if got.Total < edge {
					wr.Failed++
					wr.fail("request %d: live-edge total fell from %d to %d", rp.idx, edge, got.Total)
				}
				edge = got.Total
			}
		}
	}
}
