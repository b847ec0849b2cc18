package core

import (
	"fmt"
	"io"
)

// PeriodPlan describes one cube the optimizer chose.
type PeriodPlan struct {
	Period string `json:"period"`
	Level  string `json:"level"`
	Cached bool   `json:"cached"`
	// Fallback marks a cube that was unreadable and reconstructed from its
	// constituents by degraded-mode execution (traces only; Explain plans
	// around quarantined pages up front and never predicts a fallback).
	Fallback bool `json:"fallback,omitempty"`
}

// BucketPlan is the plan of one date bucket (the whole window for queries
// that do not group by date).
type BucketPlan struct {
	Bucket  string       `json:"bucket,omitempty"`
	Periods []PeriodPlan `json:"periods"`
}

// Explanation describes how Analyze would execute a query: the clipped
// window and, per bucket, the exact mix of daily/weekly/monthly/yearly cubes
// the level optimizer selected, with their cache residency.
type Explanation struct {
	From      string       `json:"from,omitempty"`
	To        string       `json:"to,omitempty"`
	Empty     bool         `json:"empty,omitempty"`
	Buckets   []BucketPlan `json:"buckets,omitempty"`
	Fetches   int          `json:"fetches"`
	DiskReads int          `json:"disk_reads"`
}

// Explain plans a query without executing it.
func (e *Engine) Explain(q Query) (*Explanation, error) {
	if q.To < q.From {
		return nil, fmt.Errorf("core: query window [%s, %s] is inverted", q.From, q.To)
	}
	// Validate the filters even though planning ignores them, so Explain
	// rejects exactly what Analyze rejects.
	if _, err := CompileFilter(&q, e.reg); err != nil {
		return nil, err
	}
	lo, hi, ok := e.clip(q.From, q.To)
	if !ok {
		return &Explanation{Empty: true}, nil
	}
	ex := &Explanation{From: lo.String(), To: hi.String()}

	buckets, err := e.planBuckets(q.GroupBy.Date, lo, hi)
	if err != nil {
		return nil, err
	}
	for _, b := range buckets {
		bp := BucketPlan{}
		if b.bucket.hasPeriod {
			bp.Bucket = b.bucket.p.String()
		}
		for _, p := range b.periods {
			cached := e.cacheContains(p)
			bp.Periods = append(bp.Periods, PeriodPlan{Period: p.String(), Level: p.Level.String(), Cached: cached})
			ex.Fetches++
			if !cached {
				ex.DiskReads++
			}
		}
		ex.Buckets = append(ex.Buckets, bp)
	}
	return ex, nil
}

// Print renders the explanation in a compact plan-tree form.
func (ex *Explanation) Print(w io.Writer) {
	if ex.Empty {
		fmt.Fprintln(w, "plan: empty (window outside index coverage)")
		return
	}
	fmt.Fprintf(w, "plan: window %s .. %s, %d cubes (%d from disk, %d cached)\n",
		ex.From, ex.To, ex.Fetches, ex.DiskReads, ex.Fetches-ex.DiskReads)
	for _, b := range ex.Buckets {
		if b.Bucket != "" {
			fmt.Fprintf(w, "  bucket %s:\n", b.Bucket)
		}
		// Summarize runs of the same level to keep wide plans readable.
		i := 0
		for i < len(b.Periods) {
			j := i
			for j < len(b.Periods) && b.Periods[j].Level == b.Periods[i].Level &&
				b.Periods[j].Cached == b.Periods[i].Cached {
				j++
			}
			mark := "disk"
			if b.Periods[i].Cached {
				mark = "cache"
			}
			if j-i == 1 {
				fmt.Fprintf(w, "    %-8s %s (%s)\n", b.Periods[i].Level, b.Periods[i].Period, mark)
			} else {
				fmt.Fprintf(w, "    %-8s %s .. %s ×%d (%s)\n", b.Periods[i].Level,
					b.Periods[i].Period, b.Periods[j-1].Period, j-i, mark)
			}
			i = j
		}
	}
}
