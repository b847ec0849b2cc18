package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rased/internal/core"
)

// reply is one 200 response as a client saw it.
type reply struct {
	idx   int           // position in the trace
	end   time.Duration // completion, since the window began
	lat   time.Duration // request write to last body byte
	size  int           // body bytes
	stats core.ExecStats
	body  []byte // kept for oracle-checked and probe requests only
}

// loadResult is what a window of closed-loop load produced.
type loadResult struct {
	attempted int
	failed    int       // transport errors, non-200 answers, bodies without stats
	byClient  [][]reply // each client's replies in the order it issued them
	next      int       // trace position after the last request issued
	wrapped   bool      // the trace was too short and was reused
	elapsed   time.Duration
}

func (lr *loadResult) replies() []reply {
	var all []reply
	for _, rs := range lr.byClient {
		all = append(all, rs...)
	}
	return all
}

// statsTail decodes the "stats" object, the last member of an analysis
// response, without decoding the rows before it: the load generator shares
// two cores with the server it measures.
func statsTail(body []byte) (core.ExecStats, bool) {
	var st core.ExecStats
	i := bytes.LastIndex(body, []byte(`"stats":`))
	if i < 0 {
		return st, false
	}
	err := json.NewDecoder(bytes.NewReader(body[i+len(`"stats":`):])).Decode(&st)
	return st, err == nil
}

// runLoad drives addr with `clients` closed-loop clients, one keep-alive
// connection each, for duration d: a client sends its next request only after
// the previous reply, as a dashboard session does. Requests are taken from
// reqs in order, starting at start, and at most limit of them (0: no limit).
// Bodies of every keepEvery-th request and of all probe requests are kept
// for checking.
func runLoad(ctx context.Context, addr string, reqs []request, start, clients int, d time.Duration, keepEvery, limit int) *loadResult {
	lr := &loadResult{byClient: make([][]reply, clients)}
	var next atomic.Int64
	next.Store(int64(start))
	var attempted, failed atomic.Int64
	url := "http://" + addr + "/api/analysis"
	begin := time.Now()
	deadline := begin.Add(d)

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr, Timeout: 60 * time.Second}
			var buf bytes.Buffer
			for ctx.Err() == nil && time.Now().Before(deadline) {
				idx := int(next.Add(1) - 1)
				if limit > 0 && idx-start >= limit {
					next.Add(-1)
					break
				}
				rq := &reqs[idx%len(reqs)]
				attempted.Add(1)
				hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(rq.body))
				if err != nil {
					failed.Add(1)
					continue
				}
				hr.Header.Set("Content-Type", "application/json")
				t0 := time.Now()
				resp, err := client.Do(hr)
				if err != nil {
					failed.Add(1)
					continue
				}
				buf.Reset()
				_, err = io.Copy(&buf, resp.Body)
				resp.Body.Close()
				t1 := time.Now()
				if err != nil || resp.StatusCode != http.StatusOK {
					failed.Add(1)
					continue
				}
				st, ok := statsTail(buf.Bytes())
				if !ok {
					failed.Add(1)
					continue
				}
				rp := reply{idx: idx, end: t1.Sub(begin), lat: t1.Sub(t0), size: buf.Len(), stats: st}
				if rq.probe != probeNone || (keepEvery > 0 && idx%keepEvery == 0) {
					rp.body = append([]byte(nil), buf.Bytes()...)
				}
				lr.byClient[c] = append(lr.byClient[c], rp)
			}
		}(c)
	}
	wg.Wait()
	lr.elapsed = time.Since(begin)
	lr.attempted = int(attempted.Load())
	lr.failed = int(failed.Load())
	lr.next = int(next.Load())
	lr.wrapped = lr.next > len(reqs)
	return lr
}
