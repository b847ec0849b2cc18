package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"rased/internal/core"
	"rased/internal/update"
)

// DefaultRPCTimeout bounds an internal RPC whose caller attached no deadline
// of its own. Every outbound call in this package runs under a context
// deadline — the rpcdeadline lint rule enforces it (see DESIGN.md §8).
const DefaultRPCTimeout = 10 * time.Second

// Transport carries the internal RPC protocol to a shard address. The router
// is written against this interface: HTTPTransport is the production fabric,
// LocalTransport (local.go) the in-process one for tests and benchmarks.
type Transport interface {
	Exec(ctx context.Context, addr string, req *ExecRequest) (*core.Result, error)
	Health(ctx context.Context, addr string) (*ShardHealth, error)
	Sample(ctx context.Context, addr string, req *SampleRequest) ([]update.Record, error)
	Changeset(ctx context.Context, addr string, id int64) ([]update.Record, error)
}

// HTTPTransport speaks the /internal/v1 JSON protocol over HTTP.
type HTTPTransport struct {
	// Client overrides the HTTP client; nil uses a shared default with sane
	// connection pooling.
	Client *http.Client
}

var defaultRPCClient = &http.Client{
	Transport: &http.Transport{
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
	},
}

func (t *HTTPTransport) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return defaultRPCClient
}

// Exec implements Transport.
func (t *HTTPTransport) Exec(ctx context.Context, addr string, req *ExecRequest) (*core.Result, error) {
	var resp ExecResponse
	if err := t.do(ctx, addr, "/internal/v1/exec", req, &resp); err != nil {
		return nil, err
	}
	return resp.Result, nil
}

// Health implements Transport.
func (t *HTTPTransport) Health(ctx context.Context, addr string) (*ShardHealth, error) {
	var h ShardHealth
	if err := t.do(ctx, addr, "/internal/v1/health", nil, &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// Sample implements Transport.
func (t *HTTPTransport) Sample(ctx context.Context, addr string, req *SampleRequest) ([]update.Record, error) {
	var resp struct {
		Records []update.Record `json:"records"`
	}
	if err := t.do(ctx, addr, "/internal/v1/sample", req, &resp); err != nil {
		return nil, err
	}
	return resp.Records, nil
}

// Changeset implements Transport.
func (t *HTTPTransport) Changeset(ctx context.Context, addr string, id int64) ([]update.Record, error) {
	var resp struct {
		Records []update.Record `json:"records"`
	}
	if err := t.do(ctx, addr, fmt.Sprintf("/internal/v1/changeset/%d", id), nil, &resp); err != nil {
		return nil, err
	}
	return resp.Records, nil
}

// do runs one RPC: nil body means GET, otherwise POST with a JSON body. A
// context without a deadline gets DefaultRPCTimeout here, so no internal RPC
// can hang past its budget whatever the caller forgot.
func (t *HTTPTransport) do(ctx context.Context, addr, path string, in, out any) error {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, DefaultRPCTimeout)
		defer cancel()
	}
	url := "http://" + addr + path
	var req *http.Request
	var err error
	if in == nil {
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	} else {
		var body bytes.Buffer
		if err := json.NewEncoder(&body).Encode(in); err != nil {
			return fmt.Errorf("cluster: encode %s request: %w", path, err)
		}
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, url, &body)
		if req != nil {
			req.Header.Set("Content-Type", "application/json")
		}
	}
	if err != nil {
		return fmt.Errorf("cluster: build %s request: %w", path, err)
	}
	return t.roundTrip(req, addr, path, out)
}

// roundTrip sends a prepared request and decodes the response. Its request
// context always carries a deadline — do() attached one above.
//
//rased:callerdeadline
func (t *HTTPTransport) roundTrip(req *http.Request, addr, path string, out any) error {
	resp, err := t.client().Do(req)
	if err != nil {
		// Both wraps survive into the chain: the transport error keeps
		// context.DeadlineExceeded inspectable (504 at the public surface)
		// while ErrUnavailable types a plain connection failure as an
		// infrastructure 503 instead of an untyped client-blamed 400.
		return fmt.Errorf("cluster: rpc %s to %s: %w (%w)", path, addr, err, core.ErrUnavailable)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return fmt.Errorf("cluster: read %s response from %s: %w", path, addr, err)
	}
	if resp.StatusCode != http.StatusOK {
		var we wireError
		if jerr := json.Unmarshal(raw, &we); jerr == nil && we.Code != "" {
			return &RemoteError{
				Shard:      addr,
				Code:       we.Code,
				Msg:        we.Error,
				RetryAfter: time.Duration(we.RetryAfterSecs) * time.Second,
			}
		}
		return fmt.Errorf("cluster: rpc %s to %s: unexpected status %d: %w", path, addr, resp.StatusCode, core.ErrUnavailable)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("cluster: decode %s response from %s: %w", path, addr, err)
	}
	return nil
}
