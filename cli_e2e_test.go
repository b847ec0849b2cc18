package rased

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"rased/internal/cluster"
	"rased/internal/core"
	"rased/internal/temporal"
)

// TestCLIEndToEnd builds the real binaries and drives the full operator
// workflow: simulate artifacts → ingest from files → incremental append →
// query → explain. Skipped under -short (it compiles the commands).
func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI end-to-end in -short mode")
	}
	bin, err := buildCmds()
	if err != nil {
		t.Fatal(err)
	}
	run := func(name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, name), args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	files := filepath.Join(t.TempDir(), "files")
	dep := filepath.Join(t.TempDir(), "dep")

	out := run("rased-simulate", "-dir", files, "-days", "35", "-updates", "120", "-history")
	if !strings.Contains(out, "wrote 35 days") {
		t.Fatalf("simulate output: %s", out)
	}

	out = run("rased-ingest", "-dir", dep, "-from-files", files,
		"-history-file", filepath.Join(files, "history.osm"))
	if !strings.Contains(out, "days ingested:     35") {
		t.Fatalf("ingest output: %s", out)
	}

	// Publish more days and append incrementally.
	run("rased-simulate", "-dir", files, "-days", "10", "-updates", "120",
		"-start", "2021-02-05", "-seed", "99")
	out = run("rased-ingest", "-dir", dep, "-from-files", files, "-append")
	if !strings.Contains(out, "days ingested:     10") {
		t.Fatalf("append output: %s", out)
	}

	out = run("rased-query", "-dir", dep, "-group-by", "country", "-limit", "3")
	if !strings.Contains(out, "total") || !strings.Contains(out, "country") {
		t.Fatalf("query output: %s", out)
	}

	out = run("rased-query", "-dir", dep, "-explain", "-from", "2021-01-05", "-to", "2021-02-10")
	if !strings.Contains(out, "plan: window") {
		t.Fatalf("explain output: %s", out)
	}

	out = run("rased-query", "-dir", dep, "-sample", "5")
	if !strings.Contains(out, "changeset") {
		t.Fatalf("sample output: %s", out)
	}
}

// TestCLIBench drives the rased-bench binary: the instant Fig 8 run prints
// the environment header first and then the table, an unknown figure and an
// out-of-range flag are usage errors raised before any workspace is built.
func TestCLIBench(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI end-to-end in -short mode")
	}
	bin, err := buildCmds()
	if err != nil {
		t.Fatal(err)
	}
	benchCmd := func(args ...string) (stdout, stderr string, err error) {
		var o, e bytes.Buffer
		cmd := exec.Command(filepath.Join(bin, "rased-bench"), args...)
		cmd.Stdout, cmd.Stderr = &o, &e
		err = cmd.Run()
		return o.String(), e.String(), err
	}

	out, errOut, err := benchCmd("-fig", "8")
	if err != nil {
		t.Fatalf("-fig 8: %v\n%s", err, errOut)
	}
	first, rest, _ := strings.Cut(out, "\n")
	for _, want := range []string{"env: go", "nproc=", "gomaxprocs=", "years=16", "updates/day=150", "latency=200µs", "seed=1"} {
		if !strings.Contains(first, want) {
			t.Errorf("header %q lacks %q", first, want)
		}
	}
	if !strings.Contains(rest, "Figure 8: index storage vs number of levels") || !strings.Contains(rest, "4L/flat") {
		t.Errorf("-fig 8 printed no Fig 8 table:\n%s", out)
	}

	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-fig", "conc"}, `unknown figure "conc"`},
		{[]string{"-fig", "7", "-queries", "0"}, "-queries must be >= 1"},
	} {
		start := time.Now()
		_, errOut, err := benchCmd(tc.args...)
		if err == nil {
			t.Errorf("%v exited 0, want a usage error", tc.args)
		}
		if !strings.Contains(errOut, tc.want) || strings.Contains(errOut, "panic:") {
			t.Errorf("%v stderr lacks %q or panicked:\n%s", tc.args, tc.want, errOut)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("%v took %v; flags must be checked before the workspace build", tc.args, d)
		}
	}
}

// buildCmds compiles ./cmd/... once per test binary run and returns the bin
// directory; the end-to-end tests share the build.
var buildCmds = sync.OnceValues(func() (string, error) {
	bin, err := os.MkdirTemp("", "rased-bin-")
	if err != nil {
		return "", err
	}
	build := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "./cmd/...")
	build.Dir = "."
	if out, err := build.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/...: %v\n%s", err, out)
	}
	return bin, nil
})

// serverProc is one rased-server process under test.
type serverProc struct {
	name string
	cmd  *exec.Cmd
	log  *bytes.Buffer
}

func startServer(t *testing.T, bin, name string, args ...string) *serverProc {
	t.Helper()
	p := &serverProc{name: name, log: &bytes.Buffer{}}
	p.cmd = exec.Command(filepath.Join(bin, "rased-server"), args...)
	p.cmd.Stdout = p.log
	p.cmd.Stderr = p.log
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	t.Cleanup(func() {
		if p.cmd.ProcessState == nil {
			p.cmd.Process.Kill()
			p.cmd.Wait()
		}
	})
	return p
}

// stop sends SIGTERM and waits for a clean exit.
func (p *serverProc) stop(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signal %s: %v", p.name, err)
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s did not exit cleanly: %v\n%s", p.name, err, p.log.String())
		}
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		t.Fatalf("%s did not exit within 15s of SIGTERM\n%s", p.name, p.log.String())
	}
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserve port: %v", err)
	}
	defer l.Close()
	return l.Addr().String()
}

// waitHTTP polls url until it returns 200 (and, when want is non-empty, a body
// containing it).
func waitHTTP(t *testing.T, url, want string, p *serverProc) string {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	var last string
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			resp.Body.Close()
			last = fmt.Sprintf("%d %s", resp.StatusCode, buf.String())
			if resp.StatusCode == http.StatusOK && (want == "" || strings.Contains(buf.String(), want)) {
				return buf.String()
			}
		} else {
			last = err.Error()
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%s never became ready (want %q, last %q)\nprocess log:\n%s", url, want, last, p.log.String())
	return ""
}

// TestCLIClusterEndToEnd drives the scale-out serving roles as real
// processes: two shards and a router over one deployment. It checks that a
// shard refuses sub-plans for partitions the map assigns elsewhere (typed
// not_owner over the wire), that the router answers the public API planned
// over the shards, and that the tier shuts down cleanly in drain order —
// router first, then the shards it was querying.
func TestCLIClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI end-to-end in -short mode")
	}
	bin, err := buildCmds()
	if err != nil {
		t.Fatal(err)
	}
	run := func(name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, name), args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	files := filepath.Join(t.TempDir(), "files")
	dep := filepath.Join(t.TempDir(), "dep")
	run("rased-simulate", "-dir", files, "-days", "21", "-updates", "150", "-history")
	run("rased-ingest", "-dir", dep, "-from-files", files,
		"-history-file", filepath.Join(files, "history.osm"))

	// Two shards, replication 1: every partition has exactly one owner, so
	// each shard has partitions it must refuse.
	s0, s1, rtAddr := freeAddr(t), freeAddr(t), freeAddr(t)
	m := &cluster.Map{
		Version: 1, Groups: 4, Replication: 1,
		Shards: []cluster.Shard{{ID: "s0", Addr: s0}, {ID: "s1", Addr: s1}},
	}
	mapPath := filepath.Join(t.TempDir(), "map.json")
	if err := m.Save(mapPath); err != nil {
		t.Fatal(err)
	}

	shard0 := startServer(t, bin, "shard s0",
		"-shard", "-shard-id", "s0", "-cluster-map", mapPath, "-dir", dep, "-addr", s0, "-access-log=false")
	shard1 := startServer(t, bin, "shard s1",
		"-shard", "-shard-id", "s1", "-cluster-map", mapPath, "-dir", dep, "-addr", s1, "-access-log=false")
	waitHTTP(t, "http://"+s0+"/healthz", `"status":"ok"`, shard0)
	waitHTTP(t, "http://"+s1+"/healthz", `"status":"ok"`, shard1)

	// The deployment covers 2021; split that year's partitions by owner.
	var owned, foreign []string
	for g := 0; g < m.Groups; g++ {
		p := cluster.Partition{Year: 2021, Group: g}
		if m.Owners(p)[0].ID == "s0" {
			owned = append(owned, p.String())
		} else {
			foreign = append(foreign, p.String())
		}
	}
	if len(owned) == 0 || len(foreign) == 0 {
		t.Fatalf("degenerate ownership split: owned=%v foreign=%v", owned, foreign)
	}
	postExec := func(addr string, parts []string) (*http.Response, []byte) {
		t.Helper()
		body, err := json.Marshal(cluster.ExecRequest{
			MapVersion: 1,
			Partitions: parts,
			Query: core.Query{
				From: temporal.NewDay(2021, time.January, 1),
				To:   temporal.NewDay(2021, time.January, 21),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post("http://"+addr+"/internal/v1/exec", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("exec RPC: %v", err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	// A sub-plan for a partition the map assigns to s1 must come back as a
	// typed ownership refusal, not a silent wrong answer.
	resp, body := postExec(s0, foreign[:1])
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("non-owned exec: got HTTP %d, want 409: %s", resp.StatusCode, body)
	}
	var we struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(body, &we); err != nil || we.Code != cluster.CodeNotOwner {
		t.Fatalf("non-owned exec: want code %q, got %s", cluster.CodeNotOwner, body)
	}

	// The same shard executes its own partitions.
	resp, body = postExec(s0, owned)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owned exec: got HTTP %d: %s", resp.StatusCode, body)
	}
	var er cluster.ExecResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Result == nil {
		t.Fatalf("owned exec: bad response %s", body)
	}

	// Router over the tier: public API answers, /healthz aggregates both
	// shards as ok.
	router := startServer(t, bin, "router",
		"-router", "-cluster-map", mapPath, "-addr", rtAddr, "-access-log=false")
	health := waitHTTP(t, "http://"+rtAddr+"/healthz", `"status":"ok"`, router)
	if c := strings.Count(health, `"id":"s`); c != 2 {
		t.Fatalf("router /healthz reports %d shards, want 2: %s", c, health)
	}
	resp, err = http.Post("http://"+rtAddr+"/api/analysis", "application/json",
		strings.NewReader(`{"from":"2021-01-01","to":"2021-01-21","group_by":["country"]}`))
	if err != nil {
		t.Fatalf("routed analysis: %v", err)
	}
	var routed struct {
		Total uint64 `json:"total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&routed); err != nil {
		t.Fatalf("routed analysis decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || routed.Total == 0 {
		t.Fatalf("routed analysis: HTTP %d total %d, want 200 with updates", resp.StatusCode, routed.Total)
	}

	// Drain order: the router stops first, while the shards it scattered to
	// are still serving; only then do the shards shut down.
	router.stop(t)
	if !strings.Contains(router.log.String(), "shutting down") {
		t.Fatalf("router log missing graceful shutdown:\n%s", router.log.String())
	}
	for _, addr := range []string{s0, s1} {
		r, err := http.Get("http://" + addr + "/healthz")
		if err != nil {
			t.Fatalf("shard %s not serving after router drain: %v", addr, err)
		}
		r.Body.Close()
	}
	for _, sh := range []*serverProc{shard0, shard1} {
		sh.stop(t)
		if !strings.Contains(sh.log.String(), "draining") {
			t.Fatalf("%s log missing graceful drain:\n%s", sh.name, sh.log.String())
		}
	}
}
