package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"

	"rased/internal/core"
	"rased/internal/cube"
	"rased/internal/geo"
	"rased/internal/heap"
	"rased/internal/server"
	"rased/internal/temporal"
	"rased/internal/update"
	"rased/internal/warehouse"
)

// oracle answers analysis requests by brute force over the raw update
// records of the warehouse heap: filter, bucket, count, sort. It shares no
// code with the cube path — no cubes, no plans, no index — so a bug both a
// cached and an uncached cube execution share still shows.
//
// It assumes the schema's country dimension holds leaf countries only (true
// for the first 80 catalog values), where a record counts once; zone rollup
// cells would need the geo catalog.
type oracle struct {
	recs  []orec // sorted by day
	names [4][]string
	index [4]map[string]int
}

// orec is one update record reduced to the four cube dimensions and its day.
type orec struct {
	day  temporal.Day
	dims [4]uint16 // element, country, road type, update type
}

// Dimension order of orec.dims and of the name tables.
const (
	dimElement = iota
	dimCountry
	dimRoad
	dimUpdate
)

// groupByDim maps the API's group_by names to dimensions.
var groupByDim = map[string]int{"element_type": dimElement, "country": dimCountry, "road_type": dimRoad, "update_type": dimUpdate}

// loadOracle scans the warehouse heap of a built deployment once. It must
// run before any server opens the directory for writing.
func loadOracle(d *deployment) (*oracle, error) {
	if !geo.Default().IsLeafCountry(len(d.schema.Countries) - 1) {
		return nil, fmt.Errorf("oracle: schema has zone rollup values in its country dimension")
	}
	wh, err := warehouse.Open(filepath.Join(d.dir, "warehouse.db"))
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	defer wh.Close()
	o := newOracle(d.schema)
	o.recs = make([]orec, 0, wh.Count())
	err = wh.Heap().Scan(nil, func(_ heap.Loc, r *update.Record) error {
		o.recs = append(o.recs, orec{day: r.Day, dims: [4]uint16{
			uint16(r.ElementType), r.Country, r.RoadType, uint16(r.UpdateType),
		}})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("oracle: scan heap: %w", err)
	}
	sort.SliceStable(o.recs, func(a, b int) bool { return o.recs[a].day < o.recs[b].day })
	return o, nil
}

func newOracle(s *cube.Schema) *oracle {
	o := &oracle{names: [4][]string{s.ElementTypes, s.Countries, s.RoadTypes, s.UpdateTypes}}
	for d, names := range o.names {
		o.index[d] = make(map[string]int, len(names))
		for i, n := range names {
			o.index[d][n] = i
		}
	}
	return o
}

// resolve turns a request's filter names into catalog values per dimension
// (nil: unfiltered) and its group-by names into one flag per dimension.
func (o *oracle) resolve(req *server.AnalysisRequest) (filters [4][]int, grouped [4]bool, err error) {
	for d, list := range [4][]string{req.ElementTypes, req.Countries, req.RoadTypes, req.UpdateTypes} {
		if list == nil {
			continue
		}
		filters[d] = []int{}
		for _, name := range list {
			v, ok := o.index[d][name]
			if !ok {
				return filters, grouped, fmt.Errorf("unknown value %q in a filter", name)
			}
			filters[d] = append(filters[d], v)
		}
	}
	for _, g := range req.GroupBy {
		d, ok := groupByDim[g]
		if !ok {
			return filters, grouped, fmt.Errorf("unknown group_by %q", g)
		}
		grouped[d] = true
	}
	return filters, grouped, nil
}

// answer computes the rows and total the server must return for req.
func (o *oracle) answer(req *server.AnalysisRequest) ([]core.Row, uint64, error) {
	from, err := temporal.ParseDay(req.From)
	if err != nil {
		return nil, 0, err
	}
	to, err := temporal.ParseDay(req.To)
	if err != nil {
		return nil, 0, err
	}
	filters, grouped, err := o.resolve(req)
	if err != nil {
		return nil, 0, err
	}
	// allowed[d] == nil means the dimension is unfiltered.
	var allowed [4]map[uint16]bool
	for d, list := range filters {
		if list == nil {
			continue
		}
		allowed[d] = map[uint16]bool{}
		for _, v := range list {
			allowed[d][uint16(v)] = true
		}
	}

	type key struct {
		period string
		dims   [4]int // -1 when not grouped
	}
	counts := map[key]uint64{}
	var total uint64
	labelDay, label := temporal.Day(-1), "" // records are sorted by day: label each day once
	lo := sort.Search(len(o.recs), func(i int) bool { return o.recs[i].day >= from })
recs:
	for _, r := range o.recs[lo:] {
		if r.day > to {
			break
		}
		k := key{dims: [4]int{-1, -1, -1, -1}}
		for d := range r.dims {
			if allowed[d] != nil && !allowed[d][r.dims[d]] {
				continue recs
			}
			if grouped[d] {
				k.dims[d] = int(r.dims[d])
			}
		}
		if r.day != labelDay {
			labelDay, label = r.day, bucketLabel(req.Granularity, r.day)
		}
		k.period = label
		counts[k]++
		total++
	}
	rows := make([]core.Row, 0, len(counts))
	for k, n := range counts {
		row := core.Row{Period: k.period, Count: n}
		for d, v := range k.dims {
			if v < 0 {
				continue
			}
			name := o.names[d][v]
			switch d {
			case dimElement:
				row.ElementType = name
			case dimCountry:
				row.Country = name
			case dimRoad:
				row.RoadType = name
			case dimUpdate:
				row.UpdateType = name
			}
		}
		rows = append(rows, row)
	}
	// The server's canonical order: period, count descending, then names.
	sort.Slice(rows, func(a, b int) bool {
		x, y := rows[a], rows[b]
		switch {
		case x.Period != y.Period:
			return x.Period < y.Period
		case x.Count != y.Count:
			return x.Count > y.Count
		case x.Country != y.Country:
			return x.Country < y.Country
		case x.ElementType != y.ElementType:
			return x.ElementType < y.ElementType
		case x.RoadType != y.RoadType:
			return x.RoadType < y.RoadType
		}
		return x.UpdateType < y.UpdateType
	})
	return rows, total, nil
}

// bucketLabel is the period a day reports under at a granularity. Weeks are
// four per month; days 29 to 31 report under the month's fourth week.
func bucketLabel(granularity string, d temporal.Day) string {
	switch granularity {
	case "day":
		return d.String()
	case "week":
		if w, ok := temporal.WeekPeriod(d); ok {
			return w.String()
		}
		return temporal.Period{Level: temporal.Weekly, Index: temporal.MonthPeriod(d).Index*4 + 3}.String()
	case "month":
		return temporal.MonthPeriod(d).String()
	case "year":
		return temporal.YearPeriod(d).String()
	}
	return ""
}

// check compares one HTTP response body with the oracle's answer, exactly.
func (o *oracle) check(req *server.AnalysisRequest, body []byte) error {
	var got core.Result
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("undecodable response: %w", err)
	}
	return o.compare(req, &got)
}

// compare holds a decoded response against the oracle's answer.
func (o *oracle) compare(req *server.AnalysisRequest, got *core.Result) error {
	rows, total, err := o.answer(req)
	if err != nil {
		return err
	}
	if got.Total != total {
		return fmt.Errorf("total %d, oracle says %d (%s..%s)", got.Total, total, req.From, req.To)
	}
	if len(got.Rows) != len(rows) || (len(rows) > 0 && !reflect.DeepEqual(got.Rows, rows)) {
		return fmt.Errorf("rows differ from the oracle's %d rows (%s..%s group_by=%v %s)", len(rows), req.From, req.To, req.GroupBy, req.Granularity)
	}
	return nil
}
