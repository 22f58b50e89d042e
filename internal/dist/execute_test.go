package dist_test

// Tests for the single entry point: a cancelled context must abort
// mid-kernel-3 on both fabrics promptly and without leaking a single
// goroutine — the teardown-plane contract DESIGN.md §8 documents — and
// the dispatcher must reject unknown ops and modes.

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/edge"
	"repro/internal/kronecker"
	"repro/internal/pagerank"
	"repro/internal/sparse"
	"repro/internal/vfs"
)

// executeGraph generates the shared small Kronecker input.
func executeGraph(t *testing.T, scale int) (*edge.List, int) {
	t.Helper()
	cfg := kronecker.New(scale, 5)
	l, err := kronecker.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l, int(cfg.N())
}

func sameRank(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: rank lengths %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: rank vectors differ at %d: %v vs %v", what, i, a[i], b[i])
		}
	}
}

func sameMatrix(t *testing.T, what string, a, b *sparse.CSR) {
	t.Helper()
	if a.N != b.N || a.NNZ() != b.NNZ() {
		t.Fatalf("%s: matrix shape differs: N %d/%d nnz %d/%d", what, a.N, b.N, a.NNZ(), b.NNZ())
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			t.Fatalf("%s: RowPtr differs at %d", what, i)
		}
	}
	for i := range a.Col {
		if a.Col[i] != b.Col[i] || a.Val[i] != b.Val[i] {
			t.Fatalf("%s: entry %d differs", what, i)
		}
	}
}

// TestExecuteCancelMidKernel3 pins prompt cancellation: a context
// cancelled three iterations into a 100000-iteration kernel 3 must abort
// the run with context.Canceled on both fabrics, long before the
// iteration budget could complete.
func TestExecuteCancelMidKernel3(t *testing.T) {
	l, n := executeGraph(t, 8)
	for _, mode := range fabrics {
		ctx, cancel := context.WithCancel(context.Background())
		opt := pagerank.Options{
			Seed:       5,
			Iterations: 100000,
			Progress: func(it int) {
				if it == 3 {
					cancel()
				}
			},
		}
		start := time.Now()
		_, err := dist.Execute(ctx, dist.Spec{
			Config: dist.Config{Mode: mode}, Op: dist.OpRun,
			Edges: l, N: n, Procs: 4, PageRank: opt,
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mode %v: want context.Canceled, got %v", mode, err)
		}
		if d := time.Since(start); d > 30*time.Second {
			t.Fatalf("mode %v: cancellation took %v — not prompt", mode, d)
		}
	}
}

// waitForGoroutines polls until the live goroutine count drops back to
// at most want, failing after the deadline — the goleak-style counting
// check of the teardown contract.
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC() // give finished goroutines a scheduling chance
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: have %d, want <= %d\n%s",
				runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancelledRunsLeakNoGoroutines runs a batch of goroutine-mode
// executions that are cancelled mid-kernel-3 — with hybrid intra-rank
// teams in play — and checks that every rank goroutine, worker team and
// watcher is gone afterwards.
func TestCancelledRunsLeakNoGoroutines(t *testing.T) {
	l, n := executeGraph(t, 8)
	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		opt := pagerank.Options{
			Seed:       5,
			Iterations: 100000,
			Progress: func(it int) {
				if it == 2 {
					cancel()
				}
			},
		}
		_, err := dist.Execute(ctx, dist.Spec{
			Config: dist.Config{Mode: dist.ExecGoroutine, Workers: 2}, Op: dist.OpRun,
			Edges: l, N: n, Procs: 4, PageRank: opt,
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: want context.Canceled, got %v", i, err)
		}
	}
	waitForGoroutines(t, base+2)
}

// TestFailedRunLeaksNoGoroutines drives the goroutine-mode out-of-core
// sort into a storage failure (the error-mid-schedule path) and checks
// the rank teardown leaves no goroutine behind.
func TestFailedRunLeaksNoGoroutines(t *testing.T) {
	l, _ := executeGraph(t, 8)
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		faulty := vfs.NewFaulty(vfs.NewMem(), 1024) // fail after 1 KiB of I/O
		_, err := dist.Execute(context.Background(), dist.Spec{
			Config: dist.Config{Mode: dist.ExecGoroutine}, Op: dist.OpSortExternal,
			Edges: l, Procs: 4, Ext: dist.ExtSortConfig{FS: faulty, RunEdges: 64},
		})
		if err == nil {
			t.Fatal("faulty FS: want error, got success")
		}
	}
	waitForGoroutines(t, base+2)
}

// TestExecuteRejectsUnknown pins the dispatcher's input contract.
func TestExecuteRejectsUnknown(t *testing.T) {
	l, n := executeGraph(t, 6)
	if _, err := dist.Execute(context.Background(), dist.Spec{Op: dist.Op(99), Edges: l, N: n, Procs: 2}); err == nil {
		t.Fatal("unknown op: want error")
	}
	if _, err := dist.Execute(context.Background(), dist.Spec{Config: dist.Config{Mode: dist.ExecMode(7)}, Op: dist.OpRun, Edges: l, N: n, Procs: 2}); err == nil {
		t.Fatal("unknown mode: want error")
	}
}

// TestExecutePreCancelled pins that an already-cancelled context never
// starts work on either fabric.
func TestExecutePreCancelled(t *testing.T) {
	l, n := executeGraph(t, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, mode := range fabrics {
		_, err := dist.Execute(ctx, dist.Spec{
			Config: dist.Config{Mode: mode}, Op: dist.OpRun, Edges: l, N: n, Procs: 2,
			PageRank: pagerank.Options{Seed: 5},
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mode %v: want context.Canceled, got %v", mode, err)
		}
	}
}
