// Webgraph: the paper's original PageRank use case — ranking pages of a
// hyperlink graph.  This example generates a power-law "web crawl",
// pipelines it through kernels 1-3, extracts the top-ranked pages, and
// performs the paper's dense eigenvector validation (§IV.D): the
// 1-norm-normalized rank vector must match the dominant eigenvector of
// c·Aᵀ + (1-c)/N.
//
//	go run ./examples/webgraph
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/kronecker"
	"repro/internal/pagerank"
	"repro/internal/pipeline"
	"repro/internal/sparse"
)

func main() {
	// A small crawl so the dense eigensolver stays cheap: 1024 "pages".
	cfg := kronecker.New(10, 7)
	edges, err := kronecker.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	n := int(cfg.N())
	fmt.Printf("crawled %d links over %d pages\n", edges.Len(), n)

	// Kernel 2: adjacency matrix, super-node/leaf elimination, row
	// normalization.
	a, err := sparse.FromEdges(edges, n)
	if err != nil {
		log.Fatal(err)
	}
	st := pipeline.ApplyKernel2Filter(a)
	fmt.Printf("filtered %d super-node column(s) (max in-degree %.0f) and %d leaf column(s)\n",
		st.SuperNodeColumns, st.MaxInDegree, st.LeafColumns)

	// Kernel 3, benchmark definition: 20 iterations, no dangling
	// correction.
	res, err := pagerank.Gather(a, pagerank.Options{Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	printTop("top pages after the benchmark's 20 iterations", res.Rank, 5)

	// Production setting: iterate to convergence with the dangling-node
	// correction so rank mass is conserved.
	conv, err := pagerank.Gather(a, pagerank.Options{
		Seed: 3, Iterations: 500, Tolerance: 1e-12, Policy: pagerank.DanglingUniform,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nconverged in %d iterations (final 1-norm diff %.2g); total rank mass %.6f\n",
		conv.Iterations, conv.FinalDiff, sparse.Sum(conv.Rank))

	// Paper validation: compare against the dense dominant eigenvector.
	diff, err := pagerank.CompareWithEigen(res.Rank, a, pagerank.EigenOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("max |r - r1| against the dense eigenvector after 20 iterations: %.2g\n", diff)
	long, err := pagerank.Gather(a, pagerank.Options{Seed: 3, Iterations: 300})
	if err != nil {
		log.Fatal(err)
	}
	diffLong, err := pagerank.CompareWithEigen(long.Rank, a, pagerank.EigenOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("max |r - r1| after 300 iterations: %.2g (the iteration converges to the eigenvector)\n", diffLong)
}

func printTop(title string, rank []float64, k int) {
	type pr struct {
		page int
		r    float64
	}
	all := make([]pr, len(rank))
	for i, r := range rank {
		all[i] = pr{i, r}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].r > all[j].r })
	fmt.Println(title + ":")
	for i := 0; i < k && i < len(all); i++ {
		fmt.Printf("  %d. page %-6d rank %.6g\n", i+1, all[i].page, all[i].r)
	}
}
