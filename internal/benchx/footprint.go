package benchx

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"time"

	"rased/internal/core"
	"rased/internal/crawl"
	"rased/internal/cube"
	"rased/internal/geo"
	"rased/internal/osmgen"
	"rased/internal/temporal"
	"rased/internal/tindex"
)

// ---------------------------------------------------------------------------
// Footprint experiment: what the compressed cold tier buys at scale. For each
// load scale the same deployment is measured twice — dense v1 pages (the hot
// tier) and then fully compacted into v2 extents — so the pairs isolate the
// encoding: index bytes per ingested update and query latency through each
// tier. The figure is the
// evidence for the storage claim: the compressed tier must shrink bytes per
// update several-fold while keeping p99 within a small factor of dense.

// FootprintPoint is one (scale, tier-pair) measurement.
type FootprintPoint struct {
	Scale        int     `json:"scale"`       // updates-per-day multiplier
	Days         int     `json:"days"`        // covered daily periods
	Periods      int     `json:"periods"`     // all periods across levels
	Updates      int64   `json:"updates"`     // ingested update records
	DenseBytes   int64   `json:"dense_bytes"` // hot-tier file bytes before compaction
	ColdBytes    int64   `json:"cold_bytes"`  // cold-tier file bytes after compaction
	DensePerUpd  float64 `json:"dense_bytes_per_update"`
	ColdPerUpd   float64 `json:"cold_bytes_per_update"`
	Reduction    float64 `json:"reduction"` // dense_bytes_per_update / cold_bytes_per_update
	DenseP50Usec float64 `json:"dense_p50_usec"`
	DenseP99Usec float64 `json:"dense_p99_usec"`
	ColdP50Usec  float64 `json:"cold_p50_usec"`
	ColdP99Usec  float64 `json:"cold_p99_usec"`
	P99Ratio     float64 `json:"p99_ratio"` // cold / dense
}

// FootprintReport is the figure's output.
type FootprintReport struct {
	Quick   bool             `json:"quick"`
	Queries int              `json:"queries_per_tier"`
	Points  []FootprintPoint `json:"points"`
}

// footprintParams sizes the run.
type footprintParams struct {
	days    int
	baseUPD int // updates per day at scale 1
	queries int
	scales  []int
}

func footprintDefaults(quick bool) footprintParams {
	if quick {
		return footprintParams{days: 21, baseUPD: 100, queries: 100, scales: []int{1, 10}}
	}
	return footprintParams{days: 90, baseUPD: 150, queries: 400, scales: []int{1, 10}}
}

// FigFootprint builds one deployment per scale, measures the dense (hot) tier,
// compacts every period into compressed extents, and measures again.
func FigFootprint(ctx context.Context, quick bool, seed int64) (*FootprintReport, error) {
	p := footprintDefaults(quick)
	rep := &FootprintReport{Quick: quick, Queries: p.queries}
	for _, scale := range p.scales {
		pt, err := footprintAtScale(ctx, p, scale, seed)
		if err != nil {
			return nil, fmt.Errorf("benchx: footprint at scale %d: %w", scale, err)
		}
		rep.Points = append(rep.Points, *pt)
	}
	return rep, nil
}

func footprintAtScale(ctx context.Context, p footprintParams, scale int, seed int64) (*FootprintPoint, error) {
	dir, err := os.MkdirTemp("", "rased-footprint")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// A wide schema is the realistic regime for the compression claim: most
	// (country, road, type) cells of any single day are empty, which is
	// exactly what the dense layout cannot exploit.
	schema := cube.ScaledSchema(60, 25)
	ix, err := tindex.Create(dir, schema, temporal.NumLevels)
	if err != nil {
		return nil, err
	}
	defer ix.Close()

	gcfg := osmgen.DefaultConfig()
	gcfg.Seed = seed + int64(scale)
	gcfg.UpdatesPerDay = p.baseUPD * scale
	gen := osmgen.New(gcfg)
	ing := core.NewIngestor(ix)
	csIdx := crawl.ChangesetIndex{}
	reg := geo.Default()
	var updates int64
	for i := 0; i < p.days; i++ {
		art := gen.NextDay()
		csIdx.Add(art.Changesets)
		recs, _, err := crawl.Daily(art.Change, csIdx, reg)
		if err != nil {
			return nil, err
		}
		kept := recs[:0]
		for _, r := range recs {
			if int(r.Country) < len(schema.Countries) && int(r.RoadType) < len(schema.RoadTypes) {
				kept = append(kept, r)
			}
		}
		if err := ing.AppendDay(art.Day, kept); err != nil {
			return nil, err
		}
		updates += int64(len(kept))
	}
	if err := ix.Sync(); err != nil {
		return nil, err
	}

	var ps []temporal.Period
	for lvl := temporal.Daily; lvl <= temporal.Yearly; lvl++ {
		ps = append(ps, ix.Periods(lvl)...)
	}
	pt := &FootprintPoint{Scale: scale, Days: p.days, Periods: len(ps), Updates: updates}

	// Dense tier: file footprint, query latency.
	pt.DenseBytes = ix.Tiers().HotFileBytes
	if pt.DenseP50Usec, pt.DenseP99Usec, err = footprintLatency(ctx, ix, p, seed); err != nil {
		return nil, err
	}

	// Compact everything and re-measure through the cold tier.
	st, err := ix.CompactPeriods(ctx, ps)
	if err != nil {
		return nil, err
	}
	if st.Compacted != len(ps) {
		return nil, fmt.Errorf("compacted %d of %d periods (%+v)", st.Compacted, len(ps), st)
	}
	pt.ColdBytes = ix.Tiers().ColdFileBytes
	if pt.ColdP50Usec, pt.ColdP99Usec, err = footprintLatency(ctx, ix, p, seed); err != nil {
		return nil, err
	}

	if updates > 0 {
		pt.DensePerUpd = float64(pt.DenseBytes) / float64(updates)
		pt.ColdPerUpd = float64(pt.ColdBytes) / float64(updates)
	}
	if pt.ColdPerUpd > 0 {
		pt.Reduction = pt.DensePerUpd / pt.ColdPerUpd
	}
	if pt.DenseP99Usec > 0 {
		pt.P99Ratio = pt.ColdP99Usec / pt.DenseP99Usec
	}
	return pt, nil
}

// footprintLatency runs a fixed single-client query mix with caching off —
// every query pays the storage path of whichever tier currently holds the
// data — and returns p50/p99 in microseconds.
func footprintLatency(ctx context.Context, ix *tindex.Index, p footprintParams, seed int64) (p50, p99 float64, err error) {
	opts := core.DefaultOptions()
	opts.CacheSlots = 0 // no residency: measure the fetch+decode path
	eng, err := core.NewEngine(ix, opts)
	if err != nil {
		return 0, 0, err
	}
	lo, hi, _ := ix.Coverage()
	rng := rand.New(rand.NewSource(seed * 31))
	lat := make([]float64, 0, p.queries)
	for i := 0; i < p.queries; i++ {
		span := temporal.Day(1 + rng.Intn(28))
		qhi := hi - temporal.Day(rng.Intn(int(hi-lo)/2+1))
		q := core.Query{From: qhi - span, To: qhi, GroupBy: core.GroupBy{Country: true}}
		start := time.Now()
		if _, err := eng.AnalyzeContext(ctx, q); err != nil {
			return 0, 0, err
		}
		lat = append(lat, float64(time.Since(start).Microseconds()))
	}
	sort.Float64s(lat)
	q := func(f float64) float64 { return lat[int(f*float64(len(lat)-1))] }
	return q(0.50), q(0.99), nil
}

// WriteFootprintJSON writes the figure as pretty-printed JSON.
func WriteFootprintJSON(path string, rep *FootprintReport) error {
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("benchx: marshal footprint figure: %w", err)
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("benchx: write footprint figure: %w", err)
	}
	return nil
}

// PrintFigFootprint renders the run.
func PrintFigFootprint(w io.Writer, rep *FootprintReport) {
	fmt.Fprintln(w, "Footprint: compressed cold tier vs dense pages")
	for _, pt := range rep.Points {
		fmt.Fprintf(w, "  scale %dx: %d updates over %d days (%d periods)\n",
			pt.Scale, pt.Updates, pt.Days, pt.Periods)
		fmt.Fprintf(w, "    index bytes/update: %.1f dense -> %.1f compressed (%.1fx reduction)\n",
			pt.DensePerUpd, pt.ColdPerUpd, pt.Reduction)
		fmt.Fprintf(w, "    query latency: p50 %.0fus/p99 %.0fus dense vs p50 %.0fus/p99 %.0fus compressed (p99 ratio %.2f)\n",
			pt.DenseP50Usec, pt.DenseP99Usec, pt.ColdP50Usec, pt.ColdP99Usec, pt.P99Ratio)
	}
}
