package pagestore_test

// The external fault-path suite: every exported
// Read* path of the page store is driven through internal/faultstore and
// must surface injected faults typed (transient errors retryable, corruption
// visible in the payload, latency bounded by the context) while fault-free
// operation stays bit-exact.

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"rased/internal/faultstore"
	"rased/internal/pagestore"
)

const fpPageSize = 256

// fpStore opens a real page store wrapped in a fault store and appends n
// deterministic pages through the wrapper (fault-free: no rules installed).
func fpStore(t *testing.T, n int) (*faultstore.Store, [][]byte) {
	t.Helper()
	under, err := pagestore.Open(filepath.Join(t.TempDir(), "pages.dat"), fpPageSize)
	if err != nil {
		t.Fatal(err)
	}
	fs := faultstore.New(under, 42)
	t.Cleanup(func() { fs.Close() })
	pages := make([][]byte, n)
	for i := range pages {
		buf := bytes.Repeat([]byte{byte(i + 1)}, fpPageSize)
		pages[i] = buf
		if id, err := fs.Append(buf); err != nil || id != i {
			t.Fatalf("append %d: id %d, err %v", i, id, err)
		}
	}
	return fs, pages
}

func TestReadPageInjectedTransient(t *testing.T) {
	fs, pages := fpStore(t, 3)
	fs.AddRule(faultstore.Rule{Op: faultstore.OpRead, Kind: faultstore.KindTransient, Page: 1, Count: 1})
	buf := make([]byte, fpPageSize)
	err := fs.ReadPage(1, buf)
	if !errors.Is(err, faultstore.ErrInjected) || !errors.Is(err, pagestore.ErrTransient) {
		t.Fatalf("injected transient = %v, want ErrInjected wrapping ErrTransient", err)
	}
	// Count: 1 is spent; the retry the error class promises must succeed.
	if err := fs.ReadPage(1, buf); err != nil || !bytes.Equal(buf, pages[1]) {
		t.Fatalf("retry after transient: err %v, payload match %v", err, bytes.Equal(buf, pages[1]))
	}
}

func TestReadPageCtxInjectedPermanent(t *testing.T) {
	fs, pages := fpStore(t, 3)
	fs.AddRule(faultstore.Rule{Op: faultstore.OpRead, Kind: faultstore.KindPermanent, Page: 2})
	ctx := context.Background()
	buf := make([]byte, fpPageSize)
	err := fs.ReadPageCtx(ctx, 2, buf)
	if !errors.Is(err, faultstore.ErrInjected) || errors.Is(err, pagestore.ErrTransient) {
		t.Fatalf("injected permanent = %v, want ErrInjected and not transient", err)
	}
	// Permanent means permanent: a second attempt fails the same way, while
	// untargeted pages read exactly.
	if err := fs.ReadPageCtx(ctx, 2, buf); !errors.Is(err, faultstore.ErrInjected) {
		t.Fatalf("second read of dead page = %v", err)
	}
	if err := fs.ReadPageCtx(ctx, 0, buf); err != nil || !bytes.Equal(buf, pages[0]) {
		t.Fatalf("healthy page after faults: err %v", err)
	}
}

func TestReadPageCtxInjectedCorruption(t *testing.T) {
	fs, pages := fpStore(t, 2)
	fs.AddRule(faultstore.Rule{Op: faultstore.OpRead, Kind: faultstore.KindCorrupt, Page: 0, Count: 1})
	buf := make([]byte, fpPageSize)
	if err := fs.ReadPageCtx(context.Background(), 0, buf); err != nil {
		t.Fatalf("corrupting read must succeed at the store layer: %v", err)
	}
	if bytes.Equal(buf, pages[0]) {
		t.Fatal("corruption rule left the payload intact")
	}
	// In-flight corruption only: the on-disk bytes are untouched.
	if err := fs.ReadPageCtx(context.Background(), 0, buf); err != nil || !bytes.Equal(buf, pages[0]) {
		t.Fatalf("second read: err %v, payload restored %v", err, bytes.Equal(buf, pages[0]))
	}
}

func TestReadPagesCtxCoalescedFaults(t *testing.T) {
	fs, pages := fpStore(t, 4)
	buf := make([]byte, 3*fpPageSize)
	if err := fs.ReadPagesCtx(context.Background(), 1, 3, buf); err != nil {
		t.Fatalf("fault-free coalesced read: %v", err)
	}
	for i := 0; i < 3; i++ {
		if !bytes.Equal(buf[i*fpPageSize:(i+1)*fpPageSize], pages[1+i]) {
			t.Fatalf("coalesced page %d mismatch", 1+i)
		}
	}
	// A transient rule on a member page fails the whole run typed.
	fs.AddRule(faultstore.Rule{Op: faultstore.OpRead, Kind: faultstore.KindTransient, Page: 2, Count: 1})
	err := fs.ReadPagesCtx(context.Background(), 1, 3, buf)
	if !errors.Is(err, faultstore.ErrInjected) || !errors.Is(err, pagestore.ErrTransient) {
		t.Fatalf("coalesced read through faulty member = %v, want typed transient", err)
	}
	if err := fs.ReadPagesCtx(context.Background(), 1, 3, buf); err != nil {
		t.Fatalf("coalesced retry after transient: %v", err)
	}
}

func TestReadPageCtxCancelledDuringLatency(t *testing.T) {
	fs, _ := fpStore(t, 1)
	fs.AddRule(faultstore.Rule{Op: faultstore.OpRead, Kind: faultstore.KindLatency, Page: -1, Latency: 50 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	buf := make([]byte, fpPageSize)
	if err := fs.ReadPageCtx(ctx, 0, buf); !errors.Is(err, context.Canceled) {
		t.Fatalf("read under latency with cancelled ctx = %v, want context.Canceled", err)
	}
}
