package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rased"
	"rased/internal/cluster"
	"rased/internal/cube"
	"rased/internal/osmgen"
	"rased/internal/temporal"
)

// The fixed deployment: 300 updates a day into an 80-country × 30-road-type
// schema (233 472-byte cube pages), no monthly refinement, warehouse on.
// Coverage always ends on coverageEnd so workloads can speak of "recent".
const (
	schemaCountries = 80
	schemaRoadTypes = 30
	updatesPerDay   = 300
	seedElements    = 2000
	worldSeed       = 1
)

var coverageEnd = temporal.NewDay(2021, time.December, 31)

// deployment is one built directory.
type deployment struct {
	dir    string
	schema *cube.Schema
	lo, hi temporal.Day
	report *rased.BuildReport
	buildS float64
}

// buildDeployment runs rased.Build into the empty directory dir.
func buildDeployment(dir string, days int) (*deployment, error) {
	schema := cube.ScaledSchema(schemaCountries, schemaRoadTypes)
	lo := coverageEnd - temporal.Day(days-1)
	start := time.Now()
	rep, err := rased.Build(rased.BuildConfig{
		Dir:  dir,
		Days: days,
		Gen: osmgen.Config{
			Seed: worldSeed, Start: lo,
			UpdatesPerDay: updatesPerDay, SeedElements: seedElements,
		},
		Schema: schema,
	})
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", dir, err)
	}
	return &deployment{
		dir: dir, schema: schema, lo: lo, hi: coverageEnd,
		report: rep, buildS: time.Since(start).Seconds(),
	}, nil
}

// buildServer compiles cmd/rased-server from the working tree, as shipped,
// into dir.
func buildServer(ctx context.Context, dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "rased-server"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "rased/cmd/rased-server")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build rased/cmd/rased-server: %w\n%s", err, out)
	}
	return bin, nil
}

// proc is one rased-server process; stderr (the access log, which ships on)
// goes to a file in the scratch directory.
type proc struct {
	argv []string
	addr string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed when the process has exited
}

func startProc(bin, logPath, addr string, args ...string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	args = append(args, "-addr", addr)
	p := &proc{
		argv: append([]string{"rased-server"}, args...),
		addr: addr,
		cmd:  exec.Command(bin, args...),
		log:  logf,
		done: make(chan struct{}),
	}
	p.cmd.Stdout = logf
	p.cmd.Stderr = logf
	if err := p.cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	go func() {
		p.cmd.Wait() // the exit status is not needed: readiness and stop decide
		close(p.done)
	}()
	return p, nil
}

// ready polls /healthz until the first 200.
func (p *proc) ready(ctx context.Context) error {
	deadline := time.Now().Add(60 * time.Second)
	client := &http.Client{Timeout: 2 * time.Second}
	for {
		resp, err := client.Get("http://" + p.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before it was ready; see %s", strings.Join(p.argv, " "), p.log.Name())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 60s", strings.Join(p.argv, " "))
		}
	}
}

// stop ends the process with SIGTERM (SIGKILL after 20 s) and waits for it.
func (p *proc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM) // fails only when it already exited
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
}

// rssMB reads the process's peak resident set (VmHWM) in MB, 0 if unreadable.
func (p *proc) rssMB() float64 {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "status"))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// freeAddrs returns n distinct loopback addresses nothing listens on. The
// listeners are held together until all are chosen, so none repeats.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// tier is the set of server processes one workload talks to.
type tier struct {
	procs  []*proc
	public *proc // the process clients send requests to
}

func (t *tier) stop() {
	// Public side first, so in-flight scatter-gathers drain against live shards.
	for i := len(t.procs) - 1; i >= 0; i-- {
		t.procs[i].stop()
	}
}

func (t *tier) argv() [][]string {
	var out [][]string
	for _, p := range t.procs {
		out = append(out, p.argv)
	}
	return out
}

// Server roles. The only flags ever passed are -dir, -addr and these role
// flags: an optimisation counts only when it is on by default.
const (
	roleSingle = "single"
	roleLive   = "live"
	roleRouted = "routed"
)

// startTier starts fresh server processes for role over dir and waits until
// every one answers /healthz. Logs and the cluster map go beside dir.
func startTier(ctx context.Context, bin, dir, role, tag string) (*tier, error) {
	t := &tier{}
	beside := func(name string) string { return filepath.Join(filepath.Dir(dir), tag+"-"+name) }
	start := func(name, addr string, args ...string) (*proc, error) {
		p, err := startProc(bin, beside(name+".log"), addr, args...)
		if err != nil {
			return nil, err
		}
		t.procs = append(t.procs, p)
		return p, nil
	}
	addrs, err := freeAddrs(3) // at most two shards and a router
	if err != nil {
		return nil, err
	}
	switch role {
	case roleSingle:
		t.public, err = start("server", addrs[0], "-dir", dir)
	case roleLive:
		t.public, err = start("server", addrs[0], "-dir", dir, "-live", "-diff-interval", liveInterval.String())
	case roleRouted:
		// Two shards and a router over the same directory.
		mapPath := beside("map.json")
		m := cluster.Map{Version: 1, Groups: 4, Replication: 1, Shards: []cluster.Shard{
			{ID: "s0", Addr: addrs[0]}, {ID: "s1", Addr: addrs[1]},
		}}
		err = m.Save(mapPath)
		for _, sh := range m.Shards {
			if err == nil {
				_, err = start(sh.ID, sh.Addr, "-shard", "-shard-id", sh.ID, "-cluster-map", mapPath, "-dir", dir)
			}
		}
		// The router polls shard health as it starts; have them up first.
		for _, p := range t.procs {
			if err == nil {
				err = p.ready(ctx)
			}
		}
		if err == nil {
			t.public, err = start("router", addrs[2], "-router", "-cluster-map", mapPath)
		}
	default:
		err = fmt.Errorf("unknown role %q", role)
	}
	if err == nil {
		err = t.public.ready(ctx)
	}
	if err != nil {
		t.stop()
		return nil, err
	}
	return t, nil
}
