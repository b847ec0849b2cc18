package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"rased/internal/core"
	"rased/internal/exec"
	"rased/internal/obs"
	"rased/internal/temporal"
	"rased/internal/update"
	"rased/internal/warehouse"
)

// SampleBackend is the warehouse-facing slice of a deployment the shard
// forwards sample and changeset lookups to; *rased.Deployment satisfies it.
// Nil is fine for pure-aggregate shards (benchmarks, tests).
type SampleBackend interface {
	Sample(q warehouse.SampleQuery) ([]update.Record, error)
	ByChangeset(id int64) ([]update.Record, error)
}

// ShardServer executes partition-restricted sub-plans on one shard's engine.
// Admission control, caching, singleflight, and degraded fallback are the
// engine's own (internal/exec and PR 5 machinery) — the shard adds only
// ownership validation, partition → country-value restriction, and the wire
// protocol.
type ShardServer struct {
	id      string
	m       *Map
	eng     *core.Engine
	samples SampleBackend
	// groupValues[g] is the sorted country catalog values of group g under
	// the engine's schema, precomputed once.
	groupValues [][]int
	met         *ShardMetrics
}

// NewShardServer builds the shard's serving state. The engine's schema fixes
// the country catalog the groups slice; a map pinning a different catalog
// size is refused, because two shards disagreeing on the catalog would split
// the same cell into different groups.
func NewShardServer(id string, m *Map, eng *core.Engine, samples SampleBackend) (*ShardServer, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if _, ok := m.Shard(id); !ok {
		return nil, fmt.Errorf("cluster: shard id %q is not in the cluster map", id)
	}
	numValues := len(eng.Index().Schema().Countries)
	if m.Countries > 0 && m.Countries != numValues {
		return nil, fmt.Errorf("cluster: map pins %d country catalog values but the deployment schema has %d", m.Countries, numValues)
	}
	s := &ShardServer{id: id, m: m, eng: eng, samples: samples, met: newShardMetrics(id)}
	s.groupValues = make([][]int, m.Groups)
	for g := 0; g < m.Groups; g++ {
		s.groupValues[g] = m.GroupValues(g, numValues)
	}
	return s, nil
}

// ID returns the shard's id.
func (s *ShardServer) ID() string { return s.id }

// Engine returns the shard's engine.
func (s *ShardServer) Engine() *core.Engine { return s.eng }

// Metrics returns the shard's obs instruments for registry wiring.
func (s *ShardServer) Metrics() *ShardMetrics { return s.met }

// Health snapshots the shard for the router's health aggregation.
func (s *ShardServer) Health() *ShardHealth {
	h := &ShardHealth{ID: s.id, Status: "ok", MapVersion: s.m.Version, Health: s.eng.Health()}
	if h.Health.Degraded {
		h.Status = "degraded"
	}
	if lo, hi, ok := s.eng.Index().Coverage(); ok {
		h.CovLo, h.CovHi, h.HasCoverage = int(lo), int(hi), true
	}
	return h
}

// execRun is one engine call: a contiguous year window sharing one
// country-value restriction.
type execRun struct {
	lo, hi   temporal.Day
	restrict []int
}

// Exec executes one scatter sub-plan: validates the map version and
// ownership of every requested partition, coalesces the partitions into as
// few engine calls as possible (adjacent years with identical group sets
// become one restricted query), and merges the partials in deterministic run
// order. Typed failures — admission rejection, degraded execution, ownership
// and version conflicts — surface unchanged for the wire layer to encode.
func (s *ShardServer) Exec(ctx context.Context, req *ExecRequest) (*core.Result, error) {
	s.met.Execs.Inc()
	// Re-install the router-side QoS attributes so shard-local admission
	// schedules this sub-plan at the class the public tier assigned it.
	if req.Tenant != "" {
		ctx = exec.WithTenant(ctx, req.Tenant)
	}
	if class, ok := exec.ParseClass(req.Class); ok {
		ctx = exec.WithClass(ctx, class)
	}
	if req.MapVersion != s.m.Version {
		s.met.Refused.Inc()
		return nil, fmt.Errorf("cluster: request planned against map version %d, shard runs %d: %w",
			req.MapVersion, s.m.Version, ErrMapVersion)
	}
	yearGroups := map[int]map[int]bool{}
	for _, id := range req.Partitions {
		p, err := ParsePartition(id)
		if err != nil {
			return nil, err
		}
		if p.Group < 0 || p.Group >= s.m.Groups {
			return nil, fmt.Errorf("cluster: partition %s names group %d of %d: %w", id, p.Group, s.m.Groups, core.ErrBadQuery)
		}
		if !s.m.Owns(s.id, p) {
			s.met.Refused.Inc()
			return nil, fmt.Errorf("cluster: partition %s is owned by other shards: %w", id, ErrNotOwner)
		}
		g := yearGroups[p.Year]
		if g == nil {
			g = map[int]bool{}
			yearGroups[p.Year] = g
		}
		g[p.Group] = true
	}
	runs := s.coalesceRuns(yearGroups, req.Query.From, req.Query.To)
	parts := make([]*core.Result, len(runs))
	for i, run := range runs {
		part, err := s.eng.AnalyzePartitionContext(ctx, req.Query, run.lo, run.hi, run.restrict)
		if err != nil {
			return nil, err
		}
		parts[i] = part
	}
	res := MergeResults(parts)
	if req.Query.Trace {
		res.Trace = MergeTraces(parts)
	}
	return res, nil
}

// coalesceRuns turns the validated (year → group set) map into engine calls:
// years are visited in order, adjacent years with identical group sets fuse
// into one run, and each run's restriction is the union of its groups' values
// (sorted — restriction order feeds the deterministic aggregate path). Years
// outside the query window are dropped, edge years clip to it. A shard that
// owns every group of a span therefore executes it as a single unrestricted
// engine call — single-node execution is the one-shard special case, not a
// different code path.
func (s *ShardServer) coalesceRuns(yearGroups map[int]map[int]bool, qlo, qhi temporal.Day) []execRun {
	years := make([]int, 0, len(yearGroups))
	for y := range yearGroups {
		years = append(years, y)
	}
	sort.Ints(years)
	groupKey := func(gs map[int]bool) string {
		ids := make([]int, 0, len(gs))
		for g := range gs {
			ids = append(ids, g)
		}
		sort.Ints(ids)
		var k string
		for _, g := range ids {
			k += strconv.Itoa(g) + ","
		}
		return k
	}
	var runs []execRun
	for i := 0; i < len(years); {
		j := i
		key := groupKey(yearGroups[years[i]])
		for j+1 < len(years) && years[j+1] == years[j]+1 && groupKey(yearGroups[years[j+1]]) == key {
			j++
		}
		lo := temporal.NewDay(years[i], time.January, 1)
		hi := temporal.NewDay(years[j], time.December, 31)
		if lo < qlo {
			lo = qlo
		}
		if hi > qhi {
			hi = qhi
		}
		if lo <= hi {
			var restrict []int
			for g := range yearGroups[years[i]] {
				restrict = append(restrict, s.groupValues[g]...)
			}
			sort.Ints(restrict)
			runs = append(runs, execRun{lo: lo, hi: hi, restrict: restrict})
		}
		i = j + 1
	}
	return runs
}

// Handler returns the shard's internal RPC endpoints. When reg is non-nil a
// /metrics endpoint exports it (Prometheus text) alongside the RPC surface.
func (s *ShardServer) Handler(reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /internal/v1/exec", s.handleExec)
	mux.HandleFunc("GET /internal/v1/health", s.handleHealth)
	mux.HandleFunc("POST /internal/v1/sample", s.handleSample)
	mux.HandleFunc("GET /internal/v1/changeset/{id}", s.handleChangeset)
	if reg != nil {
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			reg.WritePrometheus(w)
		})
	}
	// /healthz mirrors the public server's probe contract on the internal
	// port: degraded stays HTTP 200 (see internal/server.handleHealthz).
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeWireJSON(w, http.StatusOK, s.Health())
	})
	return mux
}

func (s *ShardServer) handleExec(w http.ResponseWriter, r *http.Request) {
	var req ExecRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeWireErr(w, CodeBadRequest, fmt.Errorf("bad exec body: %w", err))
		return
	}
	res, err := s.Exec(r.Context(), &req)
	if err != nil {
		writeWireErr(w, CodeOf(err), err)
		return
	}
	writeWireJSON(w, http.StatusOK, &ExecResponse{Result: res})
}

func (s *ShardServer) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeWireJSON(w, http.StatusOK, s.Health())
}

func (s *ShardServer) handleSample(w http.ResponseWriter, r *http.Request) {
	if s.samples == nil {
		writeWireErr(w, CodeBadRequest, fmt.Errorf("cluster: shard %s serves no sample warehouse", s.id))
		return
	}
	var req SampleRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeWireErr(w, CodeBadRequest, fmt.Errorf("bad sample body: %w", err))
		return
	}
	recs, err := s.samples.Sample(req.Query)
	if err != nil {
		writeWireErr(w, CodeOf(err), err)
		return
	}
	writeWireJSON(w, http.StatusOK, map[string]any{"records": recs})
}

func (s *ShardServer) handleChangeset(w http.ResponseWriter, r *http.Request) {
	if s.samples == nil {
		writeWireErr(w, CodeBadRequest, fmt.Errorf("cluster: shard %s serves no sample warehouse", s.id))
		return
	}
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeWireErr(w, CodeBadRequest, fmt.Errorf("bad changeset id: %w", err))
		return
	}
	recs, err := s.samples.ByChangeset(id)
	if err != nil {
		writeWireErr(w, CodeOf(err), err)
		return
	}
	writeWireJSON(w, http.StatusOK, map[string]any{"records": recs})
}

func writeWireJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

//rased:errsink
func writeWireErr(w http.ResponseWriter, code string, err error) {
	we := wireError{Error: err.Error(), Code: code}
	if code == CodeRejected {
		we.RetryAfterSecs = int(exec.RetryAfter(err, time.Second).Seconds())
	}
	writeWireJSON(w, httpStatus(code), we)
}
