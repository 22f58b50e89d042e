// Service: the production-shaped session API — one long-lived
// core.Service handling many concurrent benchmark runs.
//
// Four scenes:
//
//  1. Fan-in: seven concurrent runs of the same graph through different
//     variants.  The service's staged artifact cache singleflights the
//     shared kernel-2 matrix: one run computes it, the other six join
//     the in-flight fill (1 miss, 6 hits) while the admission queue
//     caps how many execute at a time.
//
//  2. Warm run: the same configuration again is served straight from
//     the cached matrix — kernels 0-2 never run, only kernel 3
//     executes.
//
//  3. Streaming: a warm run observed live through RunStream — the
//     cache-hit event, then per-kernel boundaries and per-iteration
//     kernel-3 ticks instead of "wait for the whole Result".
//
//  4. Cancellation: a run cancelled mid-kernel-3 returns
//     context.Canceled promptly on the dist variant's goroutine ranks,
//     with every rank goroutine torn down.
//
//     go run ./examples/service
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"

	"repro/internal/core"
	"repro/internal/pagerank"
)

func main() {
	ctx := context.Background()
	svc := core.NewService(core.WithMaxConcurrent(4))
	defer svc.Close()

	// --- Scene 1: seven concurrent runs, one computed matrix. ---------
	// ("parallel" is absent by design: it generates with per-worker jump
	// streams — a different edge multiset per worker count — so it opts
	// out of every cache stage.  extsort streams kernel 0 in bounded
	// memory, skipping the list stages, but shares the canonical
	// kernel-2 matrix like everyone else.)
	variants := []string{"csr", "coo", "columnar", "distext", "graphblas", "dist", "extsort"}
	results := make([]*core.Result, len(variants))
	var wg sync.WaitGroup
	for i, v := range variants {
		wg.Add(1)
		go func(i int, v string) {
			defer wg.Done()
			res, err := svc.Run(ctx, core.Config{Scale: 12, Seed: 7, Variant: v})
			if err != nil {
				log.Fatalf("variant %s: %v", v, err)
			}
			results[i] = res
		}(i, v)
	}
	wg.Wait()
	fmt.Printf("%d concurrent runs (max 4 executing at once):\n", len(variants))
	for i, v := range variants {
		k3 := results[i].KernelResultFor(core.K3PageRank)
		fmt.Printf("  %-10s nnz=%d  %.4g edges/s\n", v, results[i].NNZ, k3.EdgesPerSecond)
	}
	st := svc.Stats()
	fmt.Printf("staged cache after the batch: matrix %d miss / %d hits — kernels 0-2 ran once for all %d runs (%d bytes resident)\n\n",
		st.CacheMatrix.Misses, st.CacheMatrix.Hits, len(variants), st.CacheBytes)

	// --- Scene 2: a warm run is kernel-3-bound. -----------------------
	warm, err := svc.Run(ctx, core.Config{Scale: 12, Seed: 7, Variant: "csr"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warm csr run: hit the cached kernel-2 matrix (matrix %d hit), executed %d kernel(s):\n",
		warm.Cache.Matrix.Hits, len(warm.Kernels))
	for _, k := range warm.Kernels {
		fmt.Printf("  %-18v %.4fs\n", k.Kernel, k.Seconds)
	}
	fmt.Println()

	// --- Scene 3: streaming progress (warm). --------------------------
	fmt.Println("streaming one dist run:")
	iterations := 0
	for ev := range svc.RunStream(ctx, core.Config{Scale: 12, Seed: 7, Variant: "dist"}) {
		switch ev.Kind {
		case core.EventRunStarted:
			fmt.Println("  run started (cleared admission)")
		case core.EventCacheHit:
			fmt.Printf("  cache hit at %v — kernels 0-2 skipped\n", ev.Kernel)
		case core.EventKernelEnd:
			fmt.Printf("  %-18v %.4fs\n", ev.Kernel, ev.KernelResult.Seconds)
		case core.EventIteration:
			iterations++ // one tick per PageRank iteration
		case core.EventRunEnd:
			if ev.Err != nil {
				log.Fatal(ev.Err)
			}
			fmt.Printf("  run done: %d iteration events, %d nonzeros\n\n", iterations, ev.Result.NNZ)
		}
	}

	// --- Scene 4: cancellation mid-kernel-3. --------------------------
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	cfg := core.Config{
		Scale: 12, Seed: 7, Variant: "dist",
		PageRank: pagerank.Options{Iterations: 1000},
	}
	_, err = svc.Run(cctx, cfg, core.WithProgress(func(ev core.PipelineEvent) {
		if ev.Kind == core.EventPipelineIteration && ev.Iteration == 3 {
			cancel() // pull the plug three iterations into kernel 3
		}
	}))
	fmt.Printf("cancelled mid-K3: err = %v (context.Canceled: %v)\n", err, errors.Is(err, context.Canceled))
}
