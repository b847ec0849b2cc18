// Command rased-server serves a RASED deployment as the dashboard backend:
// a JSON API plus a minimal HTML dashboard at /.
//
// Example:
//
//	rased-server -dir /tmp/rased -addr :8080
//
// Scale-out serving splits the same binary into two roles (see DESIGN.md
// §11): shards execute partition-restricted sub-plans over a deployment, and
// a stateless router plans, scatters, and merges:
//
//	rased-server -shard -shard-id s0 -cluster-map map.json -dir /tmp/rased -addr :9090
//	rased-server -router -cluster-map map.json -addr :8080
package main

import (
	"context"
	"flag"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"rased"
	"rased/internal/cache"
	"rased/internal/cluster"
	"rased/internal/core"
	"rased/internal/live"
	"rased/internal/obs"
	"rased/internal/osmgen"
	"rased/internal/server"
	"rased/internal/temporal"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rased-server: ")

	var (
		dir       = flag.String("dir", "", "deployment directory (required)")
		addr      = flag.String("addr", ":8080", "listen address")
		slots     = flag.Int("cache", 512, "cube cache slots (0 disables caching)")
		alpha     = flag.Float64("alpha", 0.4, "cache ratio for daily cubes")
		beta      = flag.Float64("beta", 0.35, "cache ratio for weekly cubes")
		gamma     = flag.Float64("gamma", 0.2, "cache ratio for monthly cubes")
		theta     = flag.Float64("theta", 0.05, "cache ratio for yearly cubes")
		noOpt     = flag.Bool("no-level-opt", false, "disable the level optimizer (debugging)")
		accessLog = flag.Bool("access-log", true, "log every request (Debug-level access log)")
		metrics   = flag.Bool("metrics", false, "dump the metrics snapshot (Prometheus text) to stderr on shutdown")

		workers      = flag.Int("workers", runtime.GOMAXPROCS(0), "fetch worker pool size shared by all queries (<2 fetches serially)")
		singleflight = flag.Bool("singleflight", true, "deduplicate identical concurrent cube fetches across queries")
		maxInflight  = flag.Int("max-inflight", 0, "max concurrently executing queries (0 admits everything)")
		queue        = flag.Int("queue", 0, "max queries queued for admission beyond -max-inflight; excess get 503")
		queryTimeout = flag.Duration("query-timeout", 0, "per-query execution deadline (0 disables; timeouts get 504)")

		cachePolicy = flag.String("cache-policy", "preload", "cube cache policy: preload or sharded")
		cacheBytes  = flag.Int64("cache-bytes", 0, "byte budget for the demand cube cache (0 = slots only; requires -cache-policy=sharded)")

		compact         = flag.Bool("compact", false, "run a background compactor migrating cold periods into compressed extents")
		compactInterval = flag.Duration("compact-interval", time.Hour, "sweep period for -compact")
		compactKeepDays = flag.Int("compact-keep-days", 7, "trailing days -compact leaves in the hot tier")

		liveMode     = flag.Bool("live", false, "fold simulated OsmChange replication diffs into the index continuously")
		diffInterval = flag.Duration("diff-interval", 2*time.Second, "replication cadence for -live (one diff per interval)")
		diffChunks   = flag.Int("diff-chunks", 60, "diffs per simulated day for -live")
		liveSeed     = flag.Int64("live-seed", 1, "PRNG seed for the -live edit generator")
		liveCompress = flag.Bool("compress-closed", false, "compact each simulated day (and its closed rollups) into the cold tier as it closes (with -live)")

		qos             = flag.Bool("qos", false, "class-priority admission + tenant/class extraction from request headers")
		tenantHeader    = flag.String("tenant-header", server.DefaultTenantHeader, "header naming the tenant for -qos (missing header = the anonymous tenant)")
		tenantRate      = flag.Float64("tenant-rate", 0, "per-tenant admission budget in queries/sec (0 disables; over-budget tenants get 429)")
		tenantBurst     = flag.Float64("tenant-burst", 0, "per-tenant token-bucket burst for -tenant-rate (0 picks a default from the rate)")
		resultCacheTTL  = flag.Duration("result-cache-ttl", 0, "epoch-stamped whole-result cache TTL (0 disables; live folds invalidate regardless)")
		resultCacheSlot = flag.Int("result-cache-slots", 4096, "result cache entry bound for -result-cache-ttl")

		readRetries  = flag.Int("read-retries", 2, "retries for transient page-read errors (0 disables)")
		retryBackoff = flag.Duration("retry-backoff", 2*time.Millisecond, "base backoff before a page-read retry (doubles per attempt, jittered)")
		noFallback   = flag.Bool("no-fallback", false, "disable degraded-mode replanning around corrupt cube pages")
		faults       = flag.String("faults", "", "fault-injection spec for resilience testing, e.g. 'kind=transient,prob=0.01' (see faultstore.ParseSpec)")
		faultSeed    = flag.Int64("fault-seed", 1, "PRNG seed for -faults")

		shardMode      = flag.Bool("shard", false, "serve as a cluster shard: internal RPC surface only (requires -cluster-map and -shard-id)")
		routerMode     = flag.Bool("router", false, "serve as a cluster router: the public API planned over shards (requires -cluster-map; -dir unused)")
		clusterMap     = flag.String("cluster-map", "", "cluster map JSON for -shard/-router")
		shardID        = flag.String("shard-id", "", "this shard's id in the cluster map (for -shard)")
		shardTimeout   = flag.Duration("shard-timeout", 10*time.Second, "router: per-attempt sub-plan RPC deadline")
		hedgeDelay     = flag.Duration("hedge-delay", 0, "router: fixed hedge delay (0 adapts to a latency percentile)")
		noHedge        = flag.Bool("no-hedge", false, "router: disable hedged requests (replica failover stays on)")
		spreadReplicas = flag.Bool("spread-replicas", true, "router: rotate which replica a sub-plan tries first")
		healthInterval = flag.Duration("health-interval", 5*time.Second, "router: shard health poll period")
	)
	flag.Parse()
	if *shardMode && *routerMode {
		log.Fatal("-shard and -router are mutually exclusive")
	}
	if *routerMode {
		runRouter(routerParams{
			addr: *addr, mapPath: *clusterMap, accessLog: *accessLog,
			queryTimeout: *queryTimeout, shardTimeout: *shardTimeout,
			hedgeDelay: *hedgeDelay, noHedge: *noHedge,
			spreadReplicas: *spreadReplicas, healthInterval: *healthInterval,
			dumpMetrics: *metrics,
		})
		return
	}
	if *dir == "" {
		flag.Usage()
		os.Exit(2)
	}

	// Priority admission needs a slot bound to schedule against; -qos with
	// the unlimited default would be rejected by the engine, so pick one.
	if *qos && *maxInflight == 0 {
		*maxInflight = 2 * runtime.GOMAXPROCS(0)
		if *queue == 0 {
			*queue = 16 * *maxInflight
		}
		log.Printf("-qos defaulted -max-inflight to %d and -queue to %d", *maxInflight, *queue)
	}
	opts := core.Options{
		CacheSlots:        *slots,
		Allocation:        cache.Allocation{Alpha: *alpha, Beta: *beta, Gamma: *gamma, Theta: *theta},
		LevelOptimization: !*noOpt,
		FetchWorkers:      *workers,
		Singleflight:      *singleflight,
		MaxInflight:       *maxInflight,
		MaxQueue:          *queue,
		CachePolicy:       *cachePolicy,
		CacheBytes:        *cacheBytes,
		ReadRetries:       *readRetries,
		ReadRetryBackoff:  *retryBackoff,
		DegradedFallback:  !*noFallback,
		QoSPriority:       *qos,
		TenantRate:        *tenantRate,
		TenantBurst:       *tenantBurst,
		ResultCacheTTL:    *resultCacheTTL,
		ResultCacheSlots:  *resultCacheSlot,
	}
	var oo []rased.OpenOption
	if *faults != "" {
		log.Printf("fault injection active: %s (seed %d)", *faults, *faultSeed)
		oo = append(oo, rased.WithFaultSpec(*faults, *faultSeed))
	}
	d, err := rased.OpenWith(*dir, opts, oo...)
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	if lo, hi, ok := d.Coverage(); ok {
		log.Printf("serving %s (coverage %s .. %s) on %s", *dir, lo, hi, *addr)
	} else {
		log.Printf("serving empty deployment %s on %s", *dir, *addr)
	}

	if *shardMode {
		runShard(d, *shardID, *clusterMap, *addr, *metrics)
		return
	}

	// -live folds a deterministic simulated replication stream into the
	// serving index: the generator's first day is the day after the current
	// coverage, so live epochs extend the batch-built history seamlessly.
	var (
		pipe       *live.Pipeline
		liveCancel context.CancelFunc
		liveDone   chan struct{}
	)
	if *liveMode {
		gcfg := osmgen.DefaultConfig()
		gcfg.Seed = *liveSeed
		if _, hi, ok := d.Coverage(); ok {
			gcfg.Start = hi + 1
		} else {
			gcfg.Start = temporal.NewDay(2020, time.January, 1)
		}
		pipe = live.NewPipeline(d.Index, live.Config{
			MaxCountry:     len(d.Schema.Countries),
			MaxRoad:        len(d.Schema.RoadTypes),
			Engine:         d.Engine,
			CompressClosed: *liveCompress,
		})
		d.Obs.MustRegister(pipe.Metrics().All()...)
		src := live.NewSimSource(osmgen.NewDiffStream(gcfg, *diffChunks), *diffInterval, 0)
		var ctx context.Context
		ctx, liveCancel = context.WithCancel(context.Background())
		liveDone = make(chan struct{})
		go func() {
			defer close(liveDone)
			if err := pipe.Run(ctx, src); err != nil && ctx.Err() == nil {
				log.Printf("live ingest stopped: %v", err)
			}
		}()
		log.Printf("live ingest on: one diff per %v, %d diffs per simulated day (first day %s)", *diffInterval, *diffChunks, gcfg.Start)
	}

	// -compact sweeps settled history into the compressed cold tier off the
	// query path, keeping the trailing -compact-keep-days hot (those are the
	// periods a live writer still republishes; compacting them early wastes
	// the encode on the next pull-back). The sweep coordinates with readers
	// and the fold path through the index's epoch machinery — no lock is held
	// across its I/O — so queries keep serving while history shrinks.
	var (
		compactCancel context.CancelFunc
		compactDone   chan struct{}
	)
	if *compact {
		var ctx context.Context
		ctx, compactCancel = context.WithCancel(context.Background())
		compactDone = make(chan struct{})
		keep := temporal.Day(*compactKeepDays)
		go func() {
			defer close(compactDone)
			tick := time.NewTicker(*compactInterval)
			defer tick.Stop()
			for {
				if _, hi, ok := d.Coverage(); ok {
					st, err := d.Index.CompactBefore(ctx, hi+1-keep)
					switch {
					case err != nil && ctx.Err() == nil:
						log.Printf("compactor: %v", err)
					case st.Compacted > 0:
						ts := d.Index.Tiers()
						log.Printf("compactor: %d periods -> cold (freed %d hot B, wrote %d cold B); tiers now %d hot / %d cold pages",
							st.Compacted, st.HotBytesFreed, st.ColdBytes, ts.HotPages, ts.ColdPages)
					}
				}
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
				}
			}
		}()
		log.Printf("background compactor on: every %v, keeping %d trailing days hot", *compactInterval, *compactKeepDays)
	}

	// The server's middleware logs requests at Debug; -access-log runs the
	// logger at that level so the lines show. Metrics are exported either
	// way at /metrics and /api/stats.
	level := slog.LevelInfo
	if *accessLog {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	sopts := []server.Option{
		server.WithRegistry(d.Obs),
		server.WithLogger(logger),
		server.WithQueryTimeout(*queryTimeout),
	}
	if *qos {
		sopts = append(sopts, server.WithQoS(*tenantHeader))
		log.Printf("qos on: priority admission, tenant header %s, tenant rate %.4g/s, result cache ttl %v",
			*tenantHeader, *tenantRate, *resultCacheTTL)
	}
	if pipe != nil {
		sopts = append(sopts, server.WithLiveStatus(func() server.LiveStatus {
			st := pipe.Status()
			return server.LiveStatus{Epoch: st.Epoch, Day: st.Day, Folds: st.Folds, LagSecs: st.LagSecs}
		}))
	}
	handler := http.Handler(server.New(d, sopts...))
	// Transport limits: slow or stalled clients must not pin goroutines (or
	// admission slots) forever. The write timeout bounds the whole
	// handler+response, so it sits above any per-query timeout.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}

	// Shut down cleanly on SIGINT/SIGTERM so the deployment closes properly.
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		log.Fatal(err)
	case s := <-sig:
		log.Printf("received %v, shutting down", s)
		// Stop the live pipeline first: Run checkpoints on cancellation, so
		// every published epoch is durable before the deployment closes.
		if liveCancel != nil {
			liveCancel()
			<-liveDone
		}
		if compactCancel != nil {
			compactCancel()
			<-compactDone
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		if *metrics {
			d.Obs.WritePrometheus(os.Stderr)
		}
	}
}

// runShard serves the internal RPC surface over an open deployment. Shutdown
// order matters for the router's graceful drain: the shard keeps answering
// in-flight sub-plans until Shutdown's context expires, and only then does
// the deployment close underneath it.
func runShard(d *rased.Deployment, id, mapPath, addr string, dumpMetrics bool) {
	if mapPath == "" || id == "" {
		log.Fatal("-shard requires -cluster-map and -shard-id")
	}
	m, err := cluster.LoadMap(mapPath)
	if err != nil {
		log.Fatal(err)
	}
	sh, err := cluster.NewShardServer(id, m, d.Engine, d)
	if err != nil {
		log.Fatal(err)
	}
	d.Obs.MustRegister(sh.Metrics().All()...)
	log.Printf("shard %s: map v%d, %d groups, replication %d", id, m.Version, m.Groups, m.Replication)

	srv := &http.Server{
		Addr:              addr,
		Handler:           sh.Handler(d.Obs),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		log.Fatal(err)
	case s := <-sig:
		log.Printf("received %v, draining", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		if dumpMetrics {
			d.Obs.WritePrometheus(os.Stderr)
		}
	}
}

type routerParams struct {
	addr, mapPath  string
	accessLog      bool
	queryTimeout   time.Duration
	shardTimeout   time.Duration
	hedgeDelay     time.Duration
	noHedge        bool
	spreadReplicas bool
	healthInterval time.Duration
	dumpMetrics    bool
}

// runRouter serves the public API planned over the shard tier. The router is
// stateless — no -dir — so it can restart or scale horizontally at will.
func runRouter(p routerParams) {
	if p.mapPath == "" {
		log.Fatal("-router requires -cluster-map")
	}
	m, err := cluster.LoadMap(p.mapPath)
	if err != nil {
		log.Fatal(err)
	}
	rt, err := cluster.NewRouter(m, &cluster.HTTPTransport{}, cluster.RouterConfig{
		ShardTimeout:   p.shardTimeout,
		HedgeDelay:     p.hedgeDelay,
		DisableHedging: p.noHedge,
		SpreadReplicas: p.spreadReplicas,
		HealthInterval: p.healthInterval,
	})
	if err != nil {
		log.Fatal(err)
	}
	reg := obs.NewRegistry()
	reg.MustRegister(rt.Metrics().All()...)
	log.Printf("router: map v%d, %d shards, %d groups, replication %d, serving on %s",
		m.Version, len(m.Shards), m.Groups, m.Replication, p.addr)

	healthCtx, healthCancel := context.WithCancel(context.Background())
	defer healthCancel()
	go rt.RunHealth(healthCtx)

	level := slog.LevelInfo
	if p.accessLog {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	handler := server.New(rt,
		server.WithRegistry(reg),
		server.WithLogger(logger),
		server.WithQueryTimeout(p.queryTimeout),
		server.WithClusterStatus(func() (string, any) {
			snap := rt.ClusterHealth()
			return snap.Status, snap
		}),
	)
	srv := &http.Server{
		Addr:              p.addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		log.Fatal(err)
	case s := <-sig:
		log.Printf("received %v, shutting down", s)
		// Drain the public side first so in-flight scatter-gathers finish
		// against still-serving shards; only then stop health polling.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		if p.dumpMetrics {
			reg.WritePrometheus(os.Stderr)
		}
	}
}
