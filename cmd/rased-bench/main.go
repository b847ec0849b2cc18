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
//	rased-bench -fig examples  the example queries of Figures 2-5
//	rased-bench -fig all       everything
//
// Absolute times are not comparable to the paper (scaled data, injected disk
// model); the reported shapes are. See EXPERIMENTS.md. The first stdout line
// records the environment the numbers were taken on.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"rased"
	"rased/internal/benchx"
	"rased/internal/cube"
	"rased/internal/osmgen"
	"rased/internal/temporal"
)

// figures maps each -fig value to whether it needs the shared workspace.
var figures = map[string]bool{
	"7": true, "8": false, "9": true, "10": true,
	"size": true, "alloc": true, "evict": true, "examples": false, "all": true,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("rased-bench: ")

	var (
		fig     = flag.String("fig", "all", "figure to regenerate: 7, 8, 9, 10, size, alloc, evict, examples, all")
		years   = flag.Int("years", 16, "covered period for timing figures")
		updates = flag.Int("updates", 150, "mean updates per day")
		queries = flag.Int("queries", 100, "queries per measured point")
		latency = flag.Duration("latency", 200*time.Microsecond, "injected per-page disk latency")
		seed    = flag.Int64("seed", 1, "workload seed")
	)
	flag.Parse()

	needWS, known := figures[*fig]
	var bad string
	switch {
	case !known:
		bad = fmt.Sprintf("unknown figure %q", *fig)
	case *years < 1:
		bad = "-years must be >= 1"
	case *updates < 1:
		bad = "-updates must be >= 1"
	case *queries < 1:
		bad = "-queries must be >= 1"
	}
	if bad != "" {
		fmt.Fprintf(os.Stderr, "rased-bench: %s\n", bad)
		flag.Usage()
		os.Exit(2)
	}

	fmt.Printf("env: %s %s/%s nproc=%d gomaxprocs=%d years=%d updates/day=%d latency=%v seed=%d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		*years, *updates, *latency, *seed)

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
		runExamples(*seed, *updates)
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
