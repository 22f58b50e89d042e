package serve_test

// The staged artifact cache's service-level contract tests: the
// mixed-stage singleflight property (a pre-warmed shallow stage under a
// cold deep stage), the warm-vs-cold bit-for-bit sweep across every
// variant, processor count and execution mode, and the cancellation-
// mid-fill no-poisoning guarantee.

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/serve"
)

// assertBitEqualRanks fails unless the two rank vectors are identical
// bit for bit.
func assertBitEqualRanks(t *testing.T, what string, want, got []float64) {
	t.Helper()
	if len(want) == 0 || len(want) != len(got) {
		t.Fatalf("%s: rank lengths %d vs %d", what, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: rank[%d] = %v != %v (not bit-identical)", what, i, got[i], want[i])
		}
	}
}

// TestMixedStageSingleflightWarmEdges pins the mixed-depth property:
// with the edges stage pre-warmed (via Edges) but the sorted and matrix
// stages cold, N concurrent runs elect exactly one filler — it scores
// the lone sorted and matrix misses plus an edges hit, the other N-1
// join the in-flight matrix fill, and everyone agrees bit for bit.
func TestMixedStageSingleflightWarmEdges(t *testing.T) {
	const n = 6
	svc := serve.New(serve.WithMaxConcurrent(n))
	defer svc.Close()
	ctx := context.Background()
	cfg := runCfg("csr")
	if _, err := svc.Edges(ctx, serve.GraphKey{Scale: cfg.Scale, EdgeFactor: cfg.EdgeFactor, Seed: cfg.Seed}); err != nil {
		t.Fatal(err)
	}
	results := make([]*pipeline.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = svc.Run(ctx, cfg)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	st := svc.Stats()
	if st.CacheMatrix.Misses != 1 || st.CacheMatrix.Hits != n-1 {
		t.Fatalf("matrix stage = %+v, want 1 miss / %d hits", st.CacheMatrix, n-1)
	}
	if st.CacheSorted.Misses != 1 || st.CacheSorted.Hits != 0 {
		t.Fatalf("sorted stage = %+v, want exactly 1 miss", st.CacheSorted)
	}
	// Edges: the Edges() pre-warm missed; the lone filler run hit.
	if st.CacheEdges.Misses != 1 || st.CacheEdges.Hits != 1 {
		t.Fatalf("edges stage = %+v, want 1 miss / 1 hit", st.CacheEdges)
	}
	for i := 1; i < n; i++ {
		assertBitEqualRanks(t, "mixed-stage run", results[0].Rank, results[i].Rank)
	}
}

// TestWarmVsColdBitForBitSerialVariants pins the headline correctness
// property for the serial variants: a warm run reproduces the cold
// run's ranks bit for bit, and — for cache participants — performs
// zero kernel-0/1/2 work.
func TestWarmVsColdBitForBitSerialVariants(t *testing.T) {
	for _, variant := range []string{"csr", "coo", "columnar", "graphblas", "extsort", "parallel"} {
		svc := serve.New()
		cfg := runCfg(variant)
		ctx := context.Background()
		cold, err := svc.Run(ctx, cfg)
		if err != nil {
			t.Fatalf("%s cold: %v", variant, err)
		}
		warm, err := svc.Run(ctx, cfg)
		if err != nil {
			t.Fatalf("%s warm: %v", variant, err)
		}
		if variant == "parallel" {
			// The one non-participant recomputes everything, warm or not.
			if warm.Cache != nil {
				t.Fatalf("parallel warm run consulted the cache: %+v", warm.Cache)
			}
			if len(warm.Kernels) != 4 {
				t.Fatalf("parallel warm run executed %d kernels, want 4", len(warm.Kernels))
			}
		} else {
			if warm.Cache == nil || warm.Cache.Matrix.Hits != 1 {
				t.Fatalf("%s warm run: Cache = %+v, want a matrix hit", variant, warm.Cache)
			}
			if len(warm.Kernels) != 1 || warm.Kernels[0].Kernel != pipeline.K3PageRank {
				t.Fatalf("%s warm run executed %v, want [K3]", variant, warm.Kernels)
			}
		}
		if warm.NNZ != cold.NNZ || warm.MatrixMass != cold.MatrixMass {
			t.Fatalf("%s: warm NNZ/mass %d/%v != cold %d/%v", variant, warm.NNZ, warm.MatrixMass, cold.NNZ, cold.MatrixMass)
		}
		assertBitEqualRanks(t, variant+" warm-vs-cold", cold.Rank, warm.Rank)
		svc.Close()
	}
}

// TestWarmVsColdBitForBitDistSweep extends the warm-vs-cold pin across
// the distributed variants' whole processor grid p ∈ {1, 2, 3, 5, 8}.
// The warm run consumes the cached canonical matrix, row-blocks it
// across its ranks, and must still agree with its own cold run bit for
// bit.
func TestWarmVsColdBitForBitDistSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full dist grid in -short mode")
	}
	for _, variant := range []string{"dist", "distext"} {
		for _, p := range []int{1, 2, 3, 5, 8} {
			svc := serve.New()
			cfg := runCfg(variant)
			cfg.Workers = p
			ctx := context.Background()
			cold, err := svc.Run(ctx, cfg)
			if err != nil {
				t.Fatalf("%s p=%d cold: %v", variant, p, err)
			}
			warm, err := svc.Run(ctx, cfg)
			if err != nil {
				t.Fatalf("%s p=%d warm: %v", variant, p, err)
			}
			if warm.Cache == nil || warm.Cache.Matrix.Hits != 1 {
				t.Fatalf("%s p=%d warm: Cache = %+v, want a matrix hit", variant, p, warm.Cache)
			}
			if len(warm.Kernels) != 1 || warm.Kernels[0].Kernel != pipeline.K3PageRank {
				t.Fatalf("%s p=%d warm executed %v, want [K3]", variant, p, warm.Kernels)
			}
			assertBitEqualRanks(t, variant+" dist-grid warm-vs-cold", cold.Rank, warm.Rank)
			svc.Close()
		}
	}
}

// TestWarmVsColdBitForBitSocketMode extends the warm-vs-cold pin to the
// socket execution mode: the warm run hands the cached canonical matrix
// to worker *processes* over the wire and must still agree with its own
// cold run bit for bit.  Kept to two processor counts — each run spawns
// p OS processes — the full p grid for sockets lives in
// internal/dist/socket_test.go.
func TestWarmVsColdBitForBitSocketMode(t *testing.T) {
	if testing.Short() {
		t.Skip("socket warm-vs-cold spawns worker processes; skipped in -short mode")
	}
	for _, p := range []int{1, 3} {
		svc := serve.New()
		cfg := runCfg("dist")
		cfg.Workers = p
		cfg.DistMode = "socket"
		ctx := context.Background()
		cold, err := svc.Run(ctx, cfg)
		if err != nil {
			t.Fatalf("p=%d cold: %v", p, err)
		}
		warm, err := svc.Run(ctx, cfg)
		if err != nil {
			t.Fatalf("p=%d warm: %v", p, err)
		}
		if warm.Cache == nil || warm.Cache.Matrix.Hits != 1 {
			t.Fatalf("p=%d warm: Cache = %+v, want a matrix hit", p, warm.Cache)
		}
		if len(warm.Kernels) != 1 || warm.Kernels[0].Kernel != pipeline.K3PageRank {
			t.Fatalf("p=%d warm executed %v, want [K3]", p, warm.Kernels)
		}
		assertBitEqualRanks(t, "socket warm-vs-cold", cold.Rank, warm.Rank)
		svc.Close()
	}
}

// TestWarmRunEmitsNoKernel012Events pins the "zero K0-K2 work" claim at
// the event level: a warm streaming run emits a matrix cache-hit and
// kernel events for kernel 3 only.
func TestWarmRunEmitsNoKernel012Events(t *testing.T) {
	svc := serve.New()
	defer svc.Close()
	ctx := context.Background()
	if _, err := svc.Run(ctx, runCfg("csr")); err != nil {
		t.Fatal(err)
	}
	sawHit := false
	for ev := range svc.RunStream(ctx, runCfg("csr")) {
		switch ev.Kind {
		case serve.EventCacheHit:
			if ev.Kernel != pipeline.K2Filter {
				t.Fatalf("cache hit at stage %v, want K2Filter", ev.Kernel)
			}
			sawHit = true
		case serve.EventCacheMiss:
			t.Fatalf("warm run emitted a cache miss at %v", ev.Kernel)
		case serve.EventKernelStart, serve.EventKernelEnd:
			if ev.Kernel != pipeline.K3PageRank {
				t.Fatalf("warm run emitted a kernel event for %v", ev.Kernel)
			}
		case serve.EventRunEnd:
			if ev.Err != nil {
				t.Fatal(ev.Err)
			}
		}
	}
	if !sawHit {
		t.Fatal("warm run emitted no cache-hit event")
	}
}

// TestCancelMidFillDoesNotPoisonSingleflight pins the no-poisoning
// guarantee end to end: run A wins the matrix fill and is cancelled
// while the fill is in flight; run B, already waiting on that fill,
// must recover — retry, compute the artifact itself, and finish with
// the exact ranks an undisturbed service produces.
func TestCancelMidFillDoesNotPoisonSingleflight(t *testing.T) {
	svc := serve.New(serve.WithMaxConcurrent(2))
	defer svc.Close()
	cfg := runCfg("csr")

	actx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reachedMiss := make(chan struct{})
	release := make(chan struct{})
	aDone := make(chan error, 1)
	go func() {
		_, err := svc.Run(actx, cfg, serve.WithProgress(func(ev pipeline.Event) {
			if ev.Kind == pipeline.EventCacheMiss && ev.Kernel == pipeline.K2Filter {
				close(reachedMiss)
				<-release
			}
		}))
		aDone <- err
	}()
	<-reachedMiss // A holds the in-flight matrix (and soon sorted) fill

	bDone := make(chan struct{})
	var bRes *pipeline.Result
	var bErr error
	go func() {
		defer close(bDone)
		bRes, bErr = svc.Run(context.Background(), cfg)
	}()

	cancel()       // A's ctx dies while its fills are in flight
	close(release) // let A's progress hook return; A aborts at the next check
	if err := <-aDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("run A: want context.Canceled, got %v", err)
	}
	<-bDone
	if bErr != nil {
		t.Fatalf("run B after cancelled fill: %v", bErr)
	}

	ref := serve.New()
	defer ref.Close()
	want, err := ref.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertBitEqualRanks(t, "post-cancel recovery", want.Rank, bRes.Rank)

	// The key is clean: a third run either hits the artifact B deposited
	// or recomputes it, but never sees a poisoned entry.
	again, err := svc.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertBitEqualRanks(t, "post-recovery warm run", want.Rank, again.Rank)
	if again.Cache == nil || again.Cache.Matrix.Hits != 1 {
		t.Fatalf("post-recovery run should hit the recovered matrix: %+v", again.Cache)
	}
}
