package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promSample is a parsed /metrics page: series text ("name{labels}") to value.
type promSample map[string]float64

// parseProm reads Prometheus text exposition. Comment lines are skipped;
// a line that is not "series value" is an error.
func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may hold spaces.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: malformed value in %q", line)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// scrape fetches and parses addr's /metrics.
func scrape(addr string) (promSample, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: %s answered %d", addr, resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// sum adds every series of metric name whose label text contains all of has.
func (s promSample) sum(name string, has ...string) float64 {
	var total float64
series:
	for k, v := range s {
		base, labels, _ := strings.Cut(k, "{")
		if base != name {
			continue
		}
		for _, h := range has {
			if !strings.Contains(labels, h) {
				continue series
			}
		}
		total += v
	}
	return total
}

// mean is a histogram's average observation, name_sum / name_count, over the
// series whose label text contains all of has; 0 when nothing was observed.
func (s promSample) mean(name string, has ...string) float64 {
	if n := s.sum(name+"_count", has...); n > 0 {
		return s.sum(name+"_sum", has...) / n
	}
	return 0
}

// delta returns after − before per series; a series absent before counts
// from 0 (counters are created lazily).
func delta(before, after promSample) promSample {
	out := make(promSample, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
