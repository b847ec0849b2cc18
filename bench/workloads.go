package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"rased/internal/core"
	"rased/internal/server"
	"rased/internal/temporal"
	traffic "rased/internal/workload"
)

// liveInterval is the replication cadence live.mixed asks the server for.
const liveInterval = 100 * time.Millisecond

// Live probes ride in the live.mixed trace: their totals must obey the epoch
// contract whatever the folds do.
const (
	probeNone   = iota
	probeClosed // window closed before the live edge: total never changes
	probeEdge   // window ending past the live edge: total never decreases
)

// request is one generated query, encoded once.
type request struct {
	req   server.AnalysisRequest
	body  []byte
	probe int
}

// workload is one traffic mix. gen returns at least n requests made from
// seed alone; when one generated trace is too short it continues with seed+1
// rather than wrapping, because wrapping inflates the repeat share.
type workload struct {
	name     string
	why      string
	role     string
	readOnly bool // answers can be checked against the build-time oracle
	gen      func(seed int64, d *deployment, n int) ([]request, error)
}

// The names are fixed: later issues cite them.
var workloads = []workload{
	{
		name: "dash.recent", role: roleSingle, readOnly: true,
		why: "dashboard sessions over the trailing 180 days: the working set fits the cube cache, so cache hits, kernels, row building and JSON/HTTP do the work",
		gen: func(seed int64, d *deployment, n int) ([]request, error) {
			return dashTrace(seed, n, d, []temporal.Day{trailing(d, 180)}, d.hi)
		},
	},
	{
		name: "dash.history", role: roleSingle, readOnly: true,
		why: "the same sessions over the whole history, four shifted sub-traces: the miss path, where index fetch, page reads and cube decode dominate",
		gen: historyTrace,
	},
	{
		name: "export.scan", role: roleSingle, readOnly: true,
		why: "nine- to eighteen-month bulk exports with wide group-bys and no repeats: long plans, long page runs, big JSON; a result cache cannot help",
		gen: exportTrace,
	},
	{
		name: "live.mixed", role: roleLive,
		why: "recent-window sessions beside a fold every 100 ms: epoch publication, copy-on-write pages and cache invalidation under the read path",
		gen: liveTrace,
	},
	{
		name: "routed.history", role: roleRouted, readOnly: true,
		why: "dash.history traffic through a router and two shards: plan split, wire codec, scatter-gather and merge on top of the miss path",
		gen: historyTrace,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// trailing is the first day of the trailing n days, clamped to coverage.
func trailing(d *deployment, n int) temporal.Day {
	lo := d.hi - temporal.Day(n-1)
	if lo < d.lo {
		lo = d.lo
	}
	return lo
}

// subSeedStride separates the seeds of interleaved sub-traces. With one seed
// for all, the sub-traces would draw the same sessions (same classes, spans
// and step counts) over shifted windows, and a seed's luck with a few heavy
// day-grained polls would count four times.
const subSeedStride = 1_000_003

// dashTrace draws dashboard sessions (interactive 0.7, api 0.3, no bulk) from
// internal/workload. With several covLos it interleaves one independently
// seeded sub-trace per covLo, so neither window anchors nor sessions of the
// sub-traces coincide.
func dashTrace(seed int64, n int, d *deployment, covLos []temporal.Day, covHi temporal.Day) ([]request, error) {
	var out []request
	for ; len(out) < n; seed++ {
		subs := make([][]traffic.Event, len(covLos))
		longest := 0
		for i, lo := range covLos {
			cfg := traffic.Defaults(lo, covHi, d.schema.Countries)
			cfg.Seed = seed + int64(i)*subSeedStride
			cfg.Sessions = 400
			cfg.InteractiveShare, cfg.APIShare = 0.7, 0.3
			tr, err := traffic.Generate(cfg)
			if err != nil {
				return nil, err
			}
			subs[i] = tr.Events
			longest = max(longest, len(tr.Events))
		}
		for i := 0; i < longest; i++ {
			for _, sub := range subs {
				if i < len(sub) {
					r, err := encode(toRequest(sub[i].Query), probeNone)
					if err != nil {
						return nil, err
					}
					out = append(out, r)
				}
			}
		}
	}
	return out, nil
}

func historyTrace(seed int64, d *deployment, n int) ([]request, error) {
	var los []temporal.Day
	for _, shift := range []temporal.Day{0, 11, 23, 37} {
		los = append(los, d.lo+shift)
	}
	return dashTrace(seed, n, d, los, d.hi)
}

// liveTrace is dash.recent-style traffic over [hi-29, hi+4], so most windows
// touch the day being folded, with an invariant probe at every 25th place.
func liveTrace(seed int64, d *deployment, n int) ([]request, error) {
	reqs, err := dashTrace(seed, n, d, []temporal.Day{trailing(d, 30)}, d.hi+4)
	if err != nil {
		return nil, err
	}
	closed, err := encode(server.AnalysisRequest{From: trailing(d, 30).String(), To: trailing(d, 11).String()}, probeClosed)
	if err != nil {
		return nil, err
	}
	edge, err := encode(server.AnalysisRequest{From: trailing(d, 6).String(), To: (d.hi + 4).String()}, probeEdge)
	if err != nil {
		return nil, err
	}
	for i := 24; i < len(reqs); i += 25 {
		if (i/25)%2 == 0 {
			reqs[i] = closed
		} else {
			reqs[i] = edge
		}
	}
	return reqs, nil
}

// exportGroupBys are the wide group-bys bulk exports draw from.
var exportGroupBys = []struct {
	dims []string
	gran string
}{
	{[]string{"country", "element_type"}, "week"},
	{[]string{"country", "road_type"}, "month"},
	{[]string{"country", "update_type"}, "week"},
}

// exportTrace draws From uniformly from [hi-540, hi-270] and To from the last
// 30 days (both scaled down when coverage is shorter), so hardly any two
// requests are the same. Nine to eighteen months is what lets two clients
// finish well over 1000 exports in a 10 s window, which p99 needs.
func exportTrace(seed int64, d *deployment, n int) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	cov := int(d.hi-d.lo) + 1
	far, near := min(540, cov-1), min(270, cov/2)
	out := make([]request, 0, n)
	for len(out) < n {
		from := d.hi - temporal.Day(near+rng.Intn(far-near+1))
		to := d.hi - temporal.Day(rng.Intn(min(30, near)))
		g := exportGroupBys[rng.Intn(len(exportGroupBys))]
		r, err := encode(server.AnalysisRequest{
			From: from.String(), To: to.String(), GroupBy: g.dims, Granularity: g.gran,
		}, probeNone)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// toRequest is the JSON form of a generated query.
func toRequest(q core.Query) server.AnalysisRequest {
	r := server.AnalysisRequest{
		From: q.From.String(), To: q.To.String(),
		ElementTypes: q.ElementTypes, Countries: q.Countries,
		RoadTypes: q.RoadTypes, UpdateTypes: q.UpdateTypes,
	}
	for _, g := range []struct {
		on   bool
		name string
	}{
		{q.GroupBy.ElementType, "element_type"}, {q.GroupBy.Country, "country"},
		{q.GroupBy.RoadType, "road_type"}, {q.GroupBy.UpdateType, "update_type"},
	} {
		if g.on {
			r.GroupBy = append(r.GroupBy, g.name)
		}
	}
	if q.GroupBy.Date != core.None {
		r.Granularity = q.GroupBy.Date.String()
	}
	return r
}

func encode(req server.AnalysisRequest, probe int) (request, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return request{}, fmt.Errorf("encode request: %w", err)
	}
	return request{req: req, body: body, probe: probe}, nil
}

// traceSHA identifies the bytes a run sends: the SHA-256 of the request
// bodies in trace order.
func traceSHA(reqs []request) string {
	h := sha256.New()
	for _, r := range reqs {
		h.Write(r.body)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// repeatShare is the share of requests whose bytes already appeared earlier
// in the slice: the ceiling of what a result cache could serve.
func repeatShare(reqs []request) float64 {
	if len(reqs) == 0 {
		return 0
	}
	seen := make(map[string]bool, len(reqs))
	repeats := 0
	for _, r := range reqs {
		if seen[string(r.body)] {
			repeats++
		}
		seen[string(r.body)] = true
	}
	return float64(repeats) / float64(len(reqs))
}
