// Package faultpathfix seeds the retry-loop class: a for loop that sleeps
// must consult the context, so a cancelled query stops backing off. The
// ctxflow rule checks it; the clean patterns (ctx.Err in the loop, select on
// ctx.Done, sleeping only in a spawned goroutine) must stay silent.
package faultpathfix

import (
	"context"
	"time"
)

// retryBad backs off without ever consulting the context.
func retryBad(ctx context.Context, do func() error) error {
	var err error
	for attempt := 0; attempt < 3; attempt++ { // want "retry loop sleeps without consulting"
		if err = do(); err == nil {
			return nil
		}
		time.Sleep(time.Millisecond << attempt)
	}
	return err
}

// retryGood consults ctx.Err inside the loop: no finding.
func retryGood(ctx context.Context, do func() error) error {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if err = do(); err == nil {
			return nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		time.Sleep(time.Millisecond << attempt)
	}
	return err
}

// retrySelect waits on a timer but selects on ctx.Done: no finding.
func retrySelect(ctx context.Context, do func() error) error {
	for {
		if err := do(); err == nil {
			return nil
		}
		t := time.NewTimer(time.Millisecond)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
}

// spawner sleeps only inside a goroutine launched from the loop: the loop
// itself never blocks, so no finding.
func spawner(n int) {
	for i := 0; i < n; i++ {
		go func() { time.Sleep(time.Millisecond) }()
	}
}
