package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"rased/internal/core"
	"rased/internal/update"
)

// LocalTransport routes RPCs to in-process ShardServers — the test fabric.
// It models the failure surface the router must handle: shards can be marked
// down (transport error) or stalled (fixed extra latency, the hedging
// trigger). Delays honor context cancellation, so a hedged or abandoned
// attempt returns as soon as the router gives up on it.
type LocalTransport struct {
	mu     sync.Mutex
	shards map[string]*ShardServer
	down   map[string]bool
	stall  map[string]time.Duration
}

// NewLocalTransport returns an empty fabric.
func NewLocalTransport() *LocalTransport {
	return &LocalTransport{
		shards: map[string]*ShardServer{},
		down:   map[string]bool{},
		stall:  map[string]time.Duration{},
	}
}

// Register binds a shard server to an address.
func (t *LocalTransport) Register(addr string, s *ShardServer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.shards[addr] = s
}

// SetDown marks an address unreachable (or reachable again).
func (t *LocalTransport) SetDown(addr string, down bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.down[addr] = down
}

// SetStall adds a fixed delay to every RPC to addr; zero clears it.
func (t *LocalTransport) SetStall(addr string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if d <= 0 {
		delete(t.stall, addr)
	} else {
		t.stall[addr] = d
	}
}

// enter snapshots the shard and the injected delay under the lock; the sleep
// itself happens outside it so one stalled RPC never blocks the fabric.
func (t *LocalTransport) enter(ctx context.Context, addr string) (*ShardServer, error) {
	t.mu.Lock()
	s, ok := t.shards[addr]
	isDown := t.down[addr]
	delay := t.stall[addr]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("cluster: no shard registered at %s: %w", addr, core.ErrUnavailable)
	}
	if delay > 0 {
		if err := sleepCtx(ctx, delay); err != nil {
			return nil, fmt.Errorf("cluster: rpc to %s: %w", addr, err)
		}
	}
	if isDown {
		return nil, fmt.Errorf("cluster: rpc to %s: connection refused: %w", addr, core.ErrUnavailable)
	}
	return s, nil
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Exec implements Transport.
func (t *LocalTransport) Exec(ctx context.Context, addr string, req *ExecRequest) (*core.Result, error) {
	s, err := t.enter(ctx, addr)
	if err != nil {
		return nil, err
	}
	res, err := s.Exec(ctx, req)
	if err != nil {
		if ctx.Err() != nil {
			// Keep context errors inspectable, as the HTTP transport would
			// (client.Do surfaces them through its own error chain).
			return nil, fmt.Errorf("cluster: rpc to %s: %w", addr, ctx.Err())
		}
		// Round-trip through the wire error model so the router sees exactly
		// what it would over HTTP.
		return nil, &RemoteError{Shard: addr, Code: CodeOf(err), Msg: err.Error(),
			RetryAfter: retryAfterOf(err)}
	}
	return res, nil
}

// Health implements Transport.
func (t *LocalTransport) Health(ctx context.Context, addr string) (*ShardHealth, error) {
	s, err := t.enter(ctx, addr)
	if err != nil {
		return nil, err
	}
	return s.Health(), nil
}

// Sample implements Transport.
func (t *LocalTransport) Sample(ctx context.Context, addr string, req *SampleRequest) ([]update.Record, error) {
	s, err := t.enter(ctx, addr)
	if err != nil {
		return nil, err
	}
	if s.samples == nil {
		return nil, &RemoteError{Shard: addr, Code: CodeBadRequest,
			Msg: fmt.Sprintf("cluster: shard %s serves no sample warehouse", s.id)}
	}
	recs, err := s.samples.Sample(req.Query)
	if err != nil {
		return nil, &RemoteError{Shard: addr, Code: CodeOf(err), Msg: err.Error()}
	}
	return recs, nil
}

// Changeset implements Transport.
func (t *LocalTransport) Changeset(ctx context.Context, addr string, id int64) ([]update.Record, error) {
	s, err := t.enter(ctx, addr)
	if err != nil {
		return nil, err
	}
	if s.samples == nil {
		return nil, &RemoteError{Shard: addr, Code: CodeBadRequest,
			Msg: fmt.Sprintf("cluster: shard %s serves no sample warehouse", s.id)}
	}
	recs, err := s.samples.ByChangeset(id)
	if err != nil {
		return nil, &RemoteError{Shard: addr, Code: CodeOf(err), Msg: err.Error()}
	}
	return recs, nil
}
