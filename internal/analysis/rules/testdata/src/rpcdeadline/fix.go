// Fixture for the rpcdeadline rule: loaded under the real import path
// rased/internal/cluster so the scope check applies.
package cluster

import (
	"context"
	"fmt"
	"net/http"
	"time"
)

// fetchWithDeadline builds its own deadline and wraps the transport error: no
// finding.
func fetchWithDeadline(ctx context.Context, c *http.Client, url string) error {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return fmt.Errorf("rpc to %s: %w", url, err)
	}
	return resp.Body.Close()
}

// sendMarked is marked — its callers attach the deadline — and wraps the
// error: no finding.
//
//rased:callerdeadline
func sendMarked(c *http.Client, req *http.Request) (*http.Response, error) {
	resp, err := c.Do(req)
	if err != nil {
		return nil, fmt.Errorf("round trip: %w", err)
	}
	return resp, nil
}

// probeNoDeadline fires an RPC with neither an in-body deadline nor the
// directive. The header lookup is not an RPC.
func probeNoDeadline(c *http.Client, url string) error {
	_ = http.Header{}.Get("Accept")
	resp, err := c.Get(url) // want "probeNoDeadline issues an outbound RPC without a context deadline"
	if err != nil {
		return fmt.Errorf("probe %s: %w", url, err)
	}
	return resp.Body.Close()
}

// leakTransportErr has a deadline but returns the raw transport error,
// dropping which endpoint failed.
func leakTransportErr(ctx context.Context, c *http.Client, req *http.Request) (*http.Response, error) {
	ctx, cancel := context.WithDeadline(ctx, time.Unix(0, 0).Add(time.Hour))
	defer cancel()
	resp, err := c.Do(req.WithContext(ctx))
	if err != nil {
		return nil, err // want "leakTransportErr returns an outbound RPC error bare"
	}
	return resp, nil
}

// rewrapped clears the taint by reassigning before the return: no finding.
func rewrapped(ctx context.Context, c *http.Client, req *http.Request) error {
	ctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	resp, err := c.Do(req.WithContext(ctx))
	if err != nil {
		err = fmt.Errorf("exec rpc: %w", err)
		return err
	}
	return resp.Body.Close()
}
