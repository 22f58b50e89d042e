// Command prrank runs kernels 2 and 3: it rebuilds the matrix from the
// kernel-1 files (kernel 3 needs kernel 2's in-memory output) and performs
// the timed 20-iteration PageRank, reporting edges processed per second
// (20·M / time).  With -top it prints the highest-ranked vertices.
//
//	prrank -scale 18 -dir /tmp/prdata -top 5
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/pagerank"
	"repro/internal/vfs"
)

func main() {
	var (
		scale      = flag.Int("scale", 16, "Graph500 scale factor (must match prgen)")
		edgeFactor = flag.Int("edgefactor", 16, "edges per vertex (must match prgen)")
		dir        = flag.String("dir", "prdata", "data directory holding kernel-1 files")
		variant    = flag.String("variant", "csr", "implementation variant")
		iterations = flag.Int("iterations", 20, "PageRank iterations")
		damping    = flag.Float64("damping", 0.85, "damping factor c")
		dangling   = flag.Bool("dangling", false, "apply dangling-node correction")
		seed       = flag.Uint64("seed", 1, "seed for the initial rank vector")
		top        = flag.Int("top", 0, "print the top-K ranked vertices")
	)
	flag.Parse()
	fsys, err := vfs.NewDir(*dir)
	if err != nil {
		fatal(err)
	}
	cfg := core.Config{
		Scale: *scale, EdgeFactor: *edgeFactor, FS: fsys, Variant: *variant,
		Seed: *seed, KeepRank: *top > 0,
		PageRank: pagerank.Options{Iterations: *iterations, Damping: *damping, Seed: *seed},
	}
	if *dangling {
		cfg.PageRank.Policy = pagerank.DanglingUniform
	}
	res, err := core.RunOnce(context.Background(), cfg, core.K2Filter, core.K3PageRank)
	if err != nil {
		fatal(err)
	}
	k := res.KernelResultFor(core.K3PageRank)
	fmt.Printf("kernel 3: %d iterations, %d edge traversals in %.3fs (%.4g edges/s)\n",
		res.RankIterations, k.Edges, k.Seconds, k.EdgesPerSecond)
	if *top > 0 {
		printTop(res.Rank, *top)
	}
}

func printTop(rank []float64, k int) {
	type vr struct {
		v int
		r float64
	}
	all := make([]vr, len(rank))
	for i, r := range rank {
		all[i] = vr{i, r}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].r > all[j].r })
	if k > len(all) {
		k = len(all)
	}
	fmt.Println("top ranked vertices:")
	for i := 0; i < k; i++ {
		fmt.Printf("  %2d. vertex %-10d rank %.6g\n", i+1, all[i].v, all[i].r)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "prrank:", err)
	os.Exit(1)
}
