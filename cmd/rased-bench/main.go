// Command rased-bench regenerates the paper's evaluation figures (Section
// VIII) on a scaled benchmark deployment:
//
//	rased-bench -fig 7         cache size sweep (Figure 7)
//	rased-bench -fig 8         index levels vs storage (Figure 8)
//	rased-bench -fig 9         RASED-F / RASED-O / RASED ablation (Figure 9)
//	rased-bench -fig 10        RASED vs scan-based DBMS (Figure 10)
//	rased-bench -fig size      index size accounting (Section VI-A)
//	rased-bench -fig alloc     cache allocation ablation (Section VII-A)
//	rased-bench -fig evict     cache policy ablation: preload vs demand-filled vs none
//	rased-bench -fig conc      concurrent clients: serial vs parallel fetches
//	rased-bench -fig faults    availability under injected storage faults, fallback on vs off
//	rased-bench -fig footprint compressed cold tier vs dense pages: bytes/update, latency
//	rased-bench -fig live      live ingest: epoch publication under concurrent dashboard load
//	rased-bench -fig cluster   scale-out: scatter-gather QPS 1→4→8 shards, hedged tail latency
//	rased-bench -fig qos       multi-tenant QoS: priority admission, result cache, composed chaos
//	rased-bench -fig examples  the example queries of Figures 2-5
//	rased-bench -fig all       everything
//
// Absolute times are not comparable to the paper (scaled data, injected disk
// model); the reported shapes are. See EXPERIMENTS.md. Figures with a
// committed BENCH_*.json rewrite it on a full run only: -quick prints and
// writes nothing.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"rased"
	"rased/internal/benchx"
	"rased/internal/cube"
	"rased/internal/faultstore"
	"rased/internal/osmgen"
	"rased/internal/temporal"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rased-bench: ")

	var (
		fig     = flag.String("fig", "all", "figure to regenerate: 7, 8, 9, 10, size, examples, all")
		years   = flag.Int("years", 16, "covered period for timing figures")
		updates = flag.Int("updates", 150, "mean updates per day")
		queries = flag.Int("queries", 100, "queries per measured point")
		latency = flag.Duration("latency", 200*time.Microsecond, "injected per-page disk latency")
		seed    = flag.Int64("seed", 1, "workload seed")
		workers = flag.Int("workers", 64, "fetch worker pool size for the concurrency experiment")
		quick   = flag.Bool("quick", false, "shrink the run to a smoke test (writes no BENCH_*.json)")
		faults  = flag.String("faults", "", "explicit fault-injection spec for -fig faults, overriding the rate sweep (see faultstore.ParseSpec)")
	)
	flag.Parse()

	needWS := map[string]bool{"7": true, "9": true, "10": true, "size": true, "alloc": true, "evict": true, "conc": true, "all": true}[*fig]
	var ws *benchx.Workspace
	if needWS {
		cfg := benchx.DefaultWorkspaceConfig()
		cfg.Years = *years
		cfg.UpdatesPerDay = *updates
		cfg.Seed = *seed
		cfg.ReadLatency = *latency
		cfg.WithDBMS = *fig == "10" || *fig == "all"
		log.Printf("building %d-year workspace (%d updates/day)...", cfg.Years, cfg.UpdatesPerDay)
		start := time.Now()
		var err error
		ws, err = benchx.NewWorkspace(cfg)
		if err != nil {
			log.Fatal(err)
		}
		defer ws.Close()
		log.Printf("workspace ready: %d records, %d cube pages, %.1f MB (%.1fs)",
			ws.Records, ws.Index.Store().NumPages(),
			float64(ws.Index.Store().SizeBytes())/(1<<20), time.Since(start).Seconds())
	}

	switch *fig {
	case "7":
		runFig7(ws, *queries, *seed)
	case "8":
		runFig8()
	case "9":
		runFig9(ws, *queries, *seed)
	case "10":
		runFig10(ws, *queries, *seed)
	case "size":
		runSize(ws)
	case "alloc":
		runAlloc(ws, *queries, *seed)
	case "evict":
		runEvict(ws, *queries, *seed)
	case "conc":
		runConc(ws, *workers, *quick, *seed)
	case "faults":
		runFaults(*queries, *quick, *seed, *faults)
	case "footprint":
		runFootprint(*quick, *seed)
	case "live":
		runLive(*quick, *seed)
	case "cluster":
		runCluster(*quick, *seed)
	case "qos":
		runQoS(*quick, *seed)
	case "examples":
		runExamples(*seed, *updates)
	case "all":
		runFig7(ws, *queries, *seed)
		fmt.Println()
		runFig8()
		fmt.Println()
		runFig9(ws, *queries, *seed)
		fmt.Println()
		runFig10(ws, *queries, *seed)
		fmt.Println()
		runSize(ws)
		fmt.Println()
		runAlloc(ws, *queries, *seed)
		fmt.Println()
		runEvict(ws, *queries, *seed)
		fmt.Println()
		runConc(ws, *workers, *quick, *seed)
		fmt.Println()
		runFaults(*queries, *quick, *seed, *faults)
		fmt.Println()
		runFootprint(*quick, *seed)
		fmt.Println()
		runLive(*quick, *seed)
		fmt.Println()
		runCluster(*quick, *seed)
		fmt.Println()
		runQoS(*quick, *seed)
		fmt.Println()
		runExamples(*seed, *updates)
	default:
		log.Fatalf("unknown figure %q", *fig)
	}
}

func runFig7(ws *benchx.Workspace, queries int, seed int64) {
	points, err := benchx.Fig7(ws,
		[]int{32, 64, 128, 256, 512, 1000},
		[]int{1, 3, 6, 12},
		queries, seed)
	if err != nil {
		log.Fatal(err)
	}
	benchx.PrintFig7(os.Stdout, points)
}

func runFig8() {
	// The paper's full-scale schema: the 4 MB cubes of Section VI-A.
	benchx.PrintFig8(os.Stdout, benchx.Fig8(cube.DefaultSchema(), 16))
}

func runFig9(ws *benchx.Workspace, queries int, seed int64) {
	// The flat variant reads every daily cube; cap its repetitions so the
	// sweep finishes in reasonable time at 16 years.
	if queries > 10 {
		queries = 10
	}
	points, err := benchx.Fig9(ws, []int{1, 2, 4, 8, 12, 16}, queries, seed)
	if err != nil {
		log.Fatal(err)
	}
	benchx.PrintFig9(os.Stdout, points)
}

func runFig10(ws *benchx.Workspace, queries int, seed int64) {
	if ws.Table == nil {
		log.Fatal("figure 10 needs a workspace built with the DBMS baseline (-fig 10 or -fig all)")
	}
	if queries > 10 {
		queries = 10
	}
	points, err := benchx.Fig10(ws, []int{1, 2, 4, 8, 12, 16}, queries, seed)
	if err != nil {
		log.Fatal(err)
	}
	benchx.PrintFig10(os.Stdout, points)
}

func runSize(ws *benchx.Workspace) {
	fmt.Println("Index size accounting (Section VI-A)")
	counts := ws.Index.NumCubes()
	names := []string{"daily", "weekly", "monthly", "yearly"}
	total := 0
	for lvl, name := range names {
		n := counts[temporal.Level(lvl)]
		total += n
		fmt.Printf("  %-8s %6d cubes\n", name, n)
	}
	fmt.Printf("  %-8s %6d cubes, %d bytes/page, %.1f MB total\n",
		"all", total, ws.Index.Store().PageSize(),
		float64(ws.Index.Store().SizeBytes())/(1<<20))
	fmt.Printf("  (paper at full scale: ~7,000 cubes x 4 MB pages = ~28 GB)\n")
}

func runAlloc(ws *benchx.Workspace, queries int, seed int64) {
	points, err := benchx.AblationAllocation(ws, benchx.StandardAllocations(),
		128, []int{1, 3, 6, 12}, queries, seed)
	if err != nil {
		log.Fatal(err)
	}
	benchx.PrintAblationAllocation(os.Stdout, points)
}

func runEvict(ws *benchx.Workspace, queries int, seed int64) {
	points, err := benchx.AblationEviction(ws, 128, []int{1, 3, 6, 12}, queries, seed)
	if err != nil {
		log.Fatal(err)
	}
	benchx.PrintAblationEviction(os.Stdout, points)
}

func runConc(ws *benchx.Workspace, workers int, quick bool, seed int64) {
	ctx := context.Background()
	clients := []int{1, 2, 4, 8, 16, 32, 64}
	perClient := 30
	overloadPer := 20
	if quick {
		clients = []int{1, 4, 16}
		perClient = 6
		overloadPer = 5
	}
	points, err := benchx.FigConc(ctx, ws, clients, perClient, workers, seed)
	if err != nil {
		log.Fatal(err)
	}
	benchx.PrintFigConc(os.Stdout, points)
	fmt.Println()
	over, err := benchx.OverloadConc(ctx, ws, workers, 4, 2, 48, overloadPer, seed)
	if err != nil {
		log.Fatal(err)
	}
	benchx.PrintOverload(os.Stdout, over)
}

// writeFigure persists a figure's committed JSON on full runs. A -quick
// smoke run (what `make ci` executes) must not replace committed full-scale
// results with its own, so it writes nothing.
func writeFigure(quick bool, path string, write func(path string) error) {
	if quick {
		return
	}
	if err := write(path); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", path)
}

func runFaults(queries int, quick bool, seed int64, spec string) {
	// The chaos harness builds its own small deployment per point; the shared
	// workspace is not used, so availability numbers come from the exact code
	// path the -race chaos tests certify.
	rates := []float64{0, 0.001, 0.01}
	if quick {
		queries = 1 // FigFaults floors this to its minimum sample size
	}
	var rules []faultstore.Rule
	if spec != "" {
		var err error
		rules, err = faultstore.ParseSpec(spec)
		if err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("running chaos sweep (rates %v, fallback on/off)...", rates)
	points, err := benchx.FigFaults(context.Background(), rates, rules, spec, queries, seed)
	if err != nil {
		log.Fatal(err)
	}
	benchx.PrintFigFaults(os.Stdout, points)
	writeFigure(quick, "BENCH_faults.json", func(p string) error { return benchx.WriteFaultsJSON(p, points) })
}

func runFootprint(quick bool, seed int64) {
	log.Printf("running footprint figure (quick=%v)...", quick)
	rep, err := benchx.FigFootprint(context.Background(), quick, seed)
	if err != nil {
		log.Fatal(err)
	}
	benchx.PrintFigFootprint(os.Stdout, rep)
	writeFigure(quick, "BENCH_footprint.json", func(p string) error { return benchx.WriteFootprintJSON(p, rep) })
}

func runLive(quick bool, seed int64) {
	log.Printf("running live-ingest figure (quick=%v)...", quick)
	rep, err := benchx.FigLive(context.Background(), quick, seed)
	if err != nil {
		log.Fatal(err)
	}
	benchx.PrintFigLive(os.Stdout, rep)
	writeFigure(quick, "BENCH_live.json", func(p string) error { return benchx.WriteLiveJSON(p, rep) })
}

func runCluster(quick bool, seed int64) {
	log.Printf("running cluster scale-out figure (quick=%v)...", quick)
	rep, err := benchx.FigCluster(context.Background(), quick, seed)
	if rep != nil {
		benchx.PrintFigCluster(os.Stdout, rep)
	}
	if err != nil {
		log.Fatal(err)
	}
	writeFigure(quick, "BENCH_cluster.json", func(p string) error { return benchx.WriteClusterJSON(p, rep) })
}

func runQoS(quick bool, seed int64) {
	log.Printf("running multi-tenant QoS figure (quick=%v)...", quick)
	rep, err := benchx.FigQoS(context.Background(), quick, seed)
	if rep != nil {
		benchx.PrintFigQoS(os.Stdout, rep)
		writeFigure(quick, "BENCH_qos.json", func(p string) error { return benchx.WriteQoSJSON(p, rep) })
	}
	if err != nil {
		log.Fatal(err)
	}
}

func runExamples(seed int64, updates int) {
	log.Printf("building one-year deployment for the example queries...")
	dir, err := os.MkdirTemp("", "rased-examples")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	_, err = rased.Build(rased.BuildConfig{
		Dir:  dir,
		Days: 365,
		Gen: osmgen.Config{
			Seed:          seed,
			Start:         rased.NewDate(2021, time.January, 1),
			UpdatesPerDay: updates,
			SeedElements:  2000,
		},
		MonthlyRefinement: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	d, err := rased.Open(dir, rased.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()
	lo, hi, _ := d.Coverage()
	rep, err := benchx.RunExamples(d, lo, hi)
	if err != nil {
		log.Fatal(err)
	}
	benchx.PrintExamples(os.Stdout, rep)
}
