// Package benchx is RASED's experiment harness: it builds multi-year
// benchmark deployments and regenerates every figure of the paper's
// evaluation (Section VIII) — cache-size sweeps (Fig 7), index level storage
// (Fig 8), the component ablation RASED-F / RASED-O / RASED (Fig 9), and the
// comparison against a scan-based DBMS (Fig 10) — plus the Section VII-A cache
// ablations and the example analysis queries of Figures 2-5.
//
// Deployments are scaled to laptop budgets: a reduced cube schema keeps pages
// tens of kilobytes instead of 4 MB, and pagestore latency injection models
// the production disk whose cost the paper's numbers reflect. Absolute times
// therefore differ from the paper; the asserted shapes (who wins, saturation
// points, orders of magnitude) are preserved because they depend only on how
// many pages each strategy touches.
package benchx

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"rased/internal/core"
	"rased/internal/cube"
	"rased/internal/dbms"
	"rased/internal/temporal"
	"rased/internal/tindex"
	"rased/internal/update"

	"path/filepath"

	"rased/internal/osm"
)

// WorkspaceConfig parameterizes a benchmark deployment.
type WorkspaceConfig struct {
	// Years of history (paper: up to 16).
	Years int
	// UpdatesPerDay is the mean synthetic update volume.
	UpdatesPerDay int
	// Seed drives the deterministic workload.
	Seed int64
	// Countries and RoadTypes bound the scaled schema (cube page size).
	Countries, RoadTypes int
	// ReadLatency is injected per page read to model the production disk.
	ReadLatency time.Duration
	// WithDBMS also loads the records into the baseline table (Fig 10).
	WithDBMS bool
	// DBMSBufferBytes is the baseline buffer pool budget.
	DBMSBufferBytes int64
}

// DefaultWorkspaceConfig returns the configuration the benchmarks use.
func DefaultWorkspaceConfig() WorkspaceConfig {
	return WorkspaceConfig{
		Years:           16,
		UpdatesPerDay:   150,
		Seed:            1,
		Countries:       40,
		RoadTypes:       10,
		ReadLatency:     200 * time.Microsecond,
		DBMSBufferBytes: 8 << 20,
	}
}

// Workspace is a built benchmark deployment.
type Workspace struct {
	Dir       string
	Cfg       WorkspaceConfig
	Schema    *cube.Schema
	Index     *tindex.Index
	Table     *dbms.Table          // nil unless WithDBMS
	Clustered *dbms.ClusteredTable // nil unless WithDBMS
	Lo, Hi    temporal.Day
	Records   int
}

// NewWorkspace builds the deployment in a fresh temp directory. Building a
// 16-year index takes a few seconds; callers share one workspace across
// measurements.
func NewWorkspace(cfg WorkspaceConfig) (*Workspace, error) {
	if cfg.Years < 1 {
		return nil, fmt.Errorf("benchx: years must be >= 1")
	}
	if cfg.UpdatesPerDay < 1 {
		return nil, fmt.Errorf("benchx: updates per day must be >= 1")
	}
	dir, err := os.MkdirTemp("", "rased-bench")
	if err != nil {
		return nil, err
	}
	ws := &Workspace{Dir: dir, Cfg: cfg}
	ws.Schema = cube.ScaledSchema(cfg.Countries, cfg.RoadTypes)
	ws.Index, err = tindex.Create(dir, ws.Schema, temporal.NumLevels)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if cfg.WithDBMS {
		ws.Table, err = dbms.OpenTable(filepath.Join(dir, "table.db"), cfg.DBMSBufferBytes)
		if err != nil {
			ws.Close()
			return nil, err
		}
	}

	ws.Lo = temporal.NewDay(2005, time.January, 1)
	ws.Hi = temporal.NewDay(2005+cfg.Years-1, time.December, 31)
	gen := newWorkload(cfg, ws.Schema)
	ing := core.NewIngestor(ws.Index)
	var allRecs []update.Record // for the clustered baseline
	for d := ws.Lo; d <= ws.Hi; d++ {
		recs := gen.day(d)
		ws.Records += len(recs)
		cb, err := ing.BuildDayCube(d, recs)
		if err != nil {
			ws.Close()
			return nil, err
		}
		if err := ws.Index.AppendDay(d, cb); err != nil {
			ws.Close()
			return nil, err
		}
		if ws.Table != nil {
			if err := ws.Table.Add(recs); err != nil {
				ws.Close()
				return nil, err
			}
			allRecs = append(allRecs, recs...)
		}
	}
	if cfg.WithDBMS {
		ws.Clustered, err = dbms.BuildClustered(filepath.Join(dir, "clustered.db"), allRecs, cfg.DBMSBufferBytes)
		if err != nil {
			ws.Close()
			return nil, err
		}
	}
	if err := ws.Index.Sync(); err != nil {
		ws.Close()
		return nil, err
	}
	if ws.Table != nil {
		if err := ws.Table.Flush(); err != nil {
			ws.Close()
			return nil, err
		}
	}
	// Latency injection applies to queries, not the bulk load.
	ws.Index.Store().SetReadLatency(cfg.ReadLatency)
	if ws.Table != nil {
		ws.Table.Heap().Store().SetReadLatency(cfg.ReadLatency)
	}
	if ws.Clustered != nil {
		ws.Clustered.Heap().Store().SetReadLatency(cfg.ReadLatency)
	}
	return ws, nil
}

// Close releases the workspace and deletes its directory.
func (ws *Workspace) Close() error {
	if ws.Table != nil {
		ws.Table.Close()
	}
	if ws.Clustered != nil {
		ws.Clustered.Close()
	}
	var err error
	if ws.Index != nil {
		err = ws.Index.Close()
	}
	os.RemoveAll(ws.Dir)
	return err
}

// workload synthesizes skewed UpdateList records directly (no XML round
// trip): benchmark volume at generator-validated distribution shapes.
type workload struct {
	rng        *rand.Rand
	perDay     int
	countryCDF []float64
	roadCDF    []float64
	nCountries int
	nRoads     int
}

func newWorkload(cfg WorkspaceConfig, schema *cube.Schema) *workload {
	w := &workload{
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		perDay:     cfg.UpdatesPerDay,
		nCountries: len(schema.Countries),
		nRoads:     len(schema.RoadTypes),
	}
	cw := make([]float64, w.nCountries)
	for i := range cw {
		cw[i] = 1.0 / float64(i+1) // Zipf country activity
	}
	w.countryCDF = cdf(cw)
	rw := make([]float64, w.nRoads)
	for i := range rw {
		rw[i] = 1.0 / float64(i+2)
	}
	w.roadCDF = cdf(rw)
	return w
}

func cdf(weights []float64) []float64 {
	out := make([]float64, len(weights))
	var sum float64
	for i, v := range weights {
		sum += v
		out[i] = sum
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

func (w *workload) pick(cdf []float64) int {
	x := w.rng.Float64()
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// day produces one day's records.
func (w *workload) day(d temporal.Day) []update.Record {
	n := w.perDay/2 + w.rng.Intn(w.perDay+1)
	out := make([]update.Record, n)
	for i := range out {
		var et osm.ElementType
		switch x := w.rng.Float64(); {
		case x < 0.55:
			et = osm.Way
		case x < 0.99:
			et = osm.Node
		default:
			et = osm.Relation
		}
		var ut update.Type
		switch x := w.rng.Float64(); {
		case x < 0.35:
			ut = update.Create
		case x < 0.70:
			ut = update.GeometryUpdate
		case x < 0.90:
			ut = update.MetadataUpdate
		default:
			ut = update.Delete
		}
		out[i] = update.Record{
			ElementType: et,
			Day:         d,
			Country:     uint16(w.pick(w.countryCDF)),
			RoadType:    uint16(w.pick(w.roadCDF)),
			UpdateType:  ut,
			ChangesetID: w.rng.Int63n(1 << 30),
		}
	}
	return out
}
