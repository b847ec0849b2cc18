// Command bench is RASED's end-to-end benchmark: it builds one deployment
// with rased.Build, starts the real cmd/rased-server binary with default
// flags, replays seeded dashboard traffic over loopback HTTP, checks answers
// against a brute-force oracle over the warehouse heap, and reports what a
// dashboard user waits for (qps, p50, p99, set-up time). A separate traced
// run attributes request time to each module. See README.md.
//
//	go run ./bench -out DIR                                    all workloads, untraced then traced
//	go run ./bench -workload NAME -seed N -seconds S -trace 0  one untraced run; last line is JSON
//	go run ./bench -workload NAME -seed N -seconds S -trace 1  one traced run; last line is JSON
//	go run ./bench -smoke -out DIR                             small and quick, no gates
//	go run ./bench -compare a.json b.json                      bench-diff of two result files
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// scale is everything that differs between a full and a -smoke run.
type scale struct {
	days      int           // deployment length; coverage always ends 2021-12-31
	setupReps int           // set-ups per untraced run; setup_s is their median
	warm      time.Duration // untimed warm-up on the same trace
	traceOps  int           // fixed request count of the traced run
	folds     int           // folds timed by the live probe
	gates     bool          // enforce sample-count and workload-shape gates
}

var (
	// fullScale is sized by the cap on the whole benchmark (114 runs in 3420 s),
	// not by taste: three set-ups, warm-up and the window must fit in about
	// 22 s. See README.md, "Sizes".
	fullScale  = scale{days: 1096, setupReps: 3, warm: time.Second, traceOps: 2000, folds: 40, gates: true}
	smokeScale = scale{days: 120, setupReps: 1, warm: 200 * time.Millisecond, traceOps: 150, folds: 8}
)

// defaultSeconds is BENCHMARK.json's run_seconds; smoke_test.go keeps the two equal.
const defaultSeconds = 10

func main() {
	var (
		name    = flag.String("workload", "", "run one workload (default: all, untraced then traced)")
		seed    = flag.Int64("seed", 1, "seeds trace generation only; the server sees only the generated requests")
		seconds = flag.Float64("seconds", 0, "timed window per workload (default 10, or 1 with -smoke)")
		traced  = flag.Int("trace", 0, "with -workload: 0 measures end to end against the real server, 1 runs the traced per-layer breakdown")
		smoke   = flag.Bool("smoke", false, "120-day deployment, 1 s windows, no gates")
		out     = flag.String("out", "", "directory for result.json and trace.json (default: none written)")
		workdir = flag.String("workdir", "", "parent of the scratch run directory (default: the system temp dir)")
		compare = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare a.json b.json"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	ok, err := run(ctx, config{
		workload: *name, seed: *seed, seconds: *seconds, traced: *traced,
		smoke: *smoke, out: *out, workdir: *workdir,
	})
	stop()
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   int
	smoke    bool
	out      string
	workdir  string
}

// run executes the selected runs inside one scratch directory and removes it
// on the way out. It reports ok=false when any run's outputs were wrong.
func run(ctx context.Context, cfg config) (ok bool, err error) {
	sc := fullScale
	if cfg.smoke {
		sc = smokeScale
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	if window <= 0 {
		window = defaultSeconds * time.Second
		if cfg.smoke {
			window = time.Second
		}
	}
	if cfg.workdir != "" {
		if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
			return false, err
		}
	}
	scratch, err := os.MkdirTemp(cfg.workdir, "rased-bench-")
	if err != nil {
		return false, err
	}
	scratch, err = filepath.Abs(scratch)
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(scratch)

	// With -workdir the binary keeps its place between runs, so an unchanged
	// tree is not linked again.
	binDir := scratch
	if cfg.workdir != "" {
		binDir = cfg.workdir
	}
	bin, err := buildServer(ctx, binDir)
	if err != nil {
		return false, err
	}
	r := &runner{sc: sc, seed: cfg.seed, window: window, scratch: scratch, bin: bin}

	res := &resultFile{Env: envBlock(cfg.seed, cfg.smoke)}
	ok = true
	if cfg.workload != "" {
		w, found := workloadByName(cfg.workload)
		if !found {
			return false, fmt.Errorf("unknown workload %q", cfg.workload)
		}
		wr, err := r.runOne(ctx, w, cfg.traced != 0)
		if err != nil {
			return false, err
		}
		res.add(wr)
		printEnv(os.Stdout, res.Env)
		wr.print(os.Stdout)
		if err := res.write(cfg.out, r.spans); err != nil {
			return false, err
		}
		// The run's contract line: exactly one JSON object, last on stdout.
		line, err := json.Marshal(wr.contractLine())
		if err != nil {
			return false, err
		}
		fmt.Println(string(line))
		return wr.Correct, nil
	}
	printEnv(os.Stdout, res.Env)
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			wr, err := r.runOne(ctx, w, traced)
			if err != nil {
				return false, fmt.Errorf("%s: %w", w.name, err)
			}
			res.add(wr)
			wr.print(os.Stdout)
			ok = ok && wr.Correct
		}
	}
	return ok, res.write(cfg.out, r.spans)
}
