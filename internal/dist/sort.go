package dist

// Distributed sample sort (kernel 1), the paper's proposed parallel sort:
// each processor samples its chunk, a root picks p-1 splitters from the
// gathered sample, edges are exchanged all-to-all by key range, and each
// processor sorts its bucket locally.
//
// The implementation is carefully stable so that the distributed result
// equals the serial stable radix sort bit for bit, for every p:
//
//   - input chunks are contiguous and scanned in rank order, so every
//     bucket receives its edges in global input order;
//   - routing depends only on the start vertex, so equal keys land in the
//     same bucket;
//   - the local sort is the same stable LSD radix sort the serial kernel
//     uses, and bucket key ranges are disjoint.
//
// sortRank below is the rank program; its sampling and splitter phase
// (splitterPhase) is shared with the out-of-core sort (sortext.go), so the
// two produce the same splitters, the same buckets and the same bytes.

import (
	"context"
	"sort"

	"repro/internal/edge"
	"repro/internal/xsort"
)

// SamplesPerRank is the sample-sort oversampling factor: each processor
// contributes up to this many evenly spaced keys to the splitter sample.
// perfmodel.ParallelKernel1's splitter-exchange term uses the same
// constant so the documented cost model matches the implementation.
const SamplesPerRank = 24

// SortResult is the outcome of a distributed sort.
type SortResult struct {
	// Sorted is the globally sorted edge list (concatenated bucket
	// outputs), bit-for-bit equal to xsort.RadixByU of the input.
	Sorted *edge.List
	// Comm records the sample gather, splitter broadcast and all-to-all
	// edge exchange.
	Comm CommStats
	// Wire is the measured socket traffic (ExecSocket only, else nil).
	Wire *WireStats
}

// sampleChunk draws up to SamplesPerRank evenly spaced start-vertex keys
// from the chunk [lo, hi) of the input — one rank's local sampling step.
func sampleChunk(l *edge.List, lo, hi int) []uint64 {
	cnt := hi - lo
	if cnt == 0 {
		return nil
	}
	s := SamplesPerRank
	if s > cnt {
		s = cnt
	}
	keys := make([]uint64, s)
	for k := 0; k < s; k++ {
		keys[k] = l.U[lo+k*cnt/s]
	}
	return keys
}

// chooseSplitters sorts the gathered sample in place and selects up to
// p-1 strictly increasing splitters at even sample quantiles — the root's
// selection step.  The quantiles are taken over
// the raw (frequency-weighted) sample, so skewed key distributions place
// more splitters inside their hot ranges and the buckets balance by edge
// count, which is what the oversampling exists for.  A quantile pick that
// repeats an already-chosen splitter is skipped rather than emitted:
// repeated splitters (tiny or duplicate-heavy samples repeat quantile
// indices) would funnel nearly every edge into one bucket.  Fewer than
// p-1 splitters is a valid destRank input — the trailing buckets receive
// nothing — and rank 0 broadcasts whatever length is chosen here, so the
// ranks stay in lockstep.
func chooseSplitters(samples []uint64, p int) []uint64 {
	if len(samples) == 0 {
		return nil
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	splitters := make([]uint64, 0, p-1)
	for i := 1; i < p; i++ {
		cand := samples[i*len(samples)/p]
		if len(splitters) > 0 && cand <= splitters[len(splitters)-1] {
			continue
		}
		splitters = append(splitters, cand)
	}
	return splitters
}

// destRank returns the bucket owning key u: rank i holds keys in
// [splitters[i-1], splitters[i]) with open outer sentinels.
func destRank(splitters []uint64, u uint64) int {
	return sort.Search(len(splitters), func(i int) bool { return u < splitters[i] })
}

// sortGoroutine executes OpSort on goroutine ranks; each rank samples,
// routes and sorts its bucket, and the driver concatenates the buckets in
// rank order (the unmetered "output stays distributed" convention the
// socket coordinator shares).  Inputs were validated by Execute.
func sortGoroutine(ctx context.Context, spec Spec) (*SortResult, error) {
	l, workers := spec.Edges, spec.workers()
	out, err := spawnRanks(ctx, spec.Procs, func(c *rankComm) rankOutcome {
		return rankOutcome{edges: sortRank(c, l, workers)}
	})
	if err != nil {
		return nil, err
	}
	sorted := edge.NewList(l.Len())
	for _, o := range out.outcomes {
		sorted.AppendList(o.edges)
	}
	return &SortResult{Sorted: sorted, Comm: out.result.Comm}, nil
}

// splitterPhase runs one rank's share of the sort's sampling and
// splitter schedule: sample the owned chunk [lo, hi), gather the samples
// at rank 0, select the splitters there and receive the broadcast.  The
// in-memory and out-of-core sorts share it, so the two schedules cannot
// drift apart.
func splitterPhase(c *rankComm, l *edge.List, lo, hi int) []uint64 {
	p := c.procs()
	all := c.gatherKeys(sampleChunk(l, lo, hi))
	var splitters []uint64
	if c.rank == 0 {
		samples := make([]uint64, 0, p*SamplesPerRank)
		for _, keys := range all {
			samples = append(samples, keys...)
		}
		splitters = chooseSplitters(samples, p)
	}
	return c.broadcastKeys(splitters)
}

// sortRank is one rank's sample-sort program: sample the owned chunk,
// gather samples at rank 0, receive the broadcast splitters, exchange
// edges by key range (partitioned by the rank's hybrid workers), and
// stably sort the resulting bucket.
func sortRank(c *rankComm, l *edge.List, workers int) *edge.List {
	p := c.procs()
	m := l.Len()
	lo, hi := blockBounds(m, p, c.rank)
	splitters := splitterPhase(c, l, lo, hi)

	out := partitionChunk(l, lo, hi, splitters, p, workers)
	in := c.exchangeEdges(out)
	bucket := edge.NewList((hi - lo) * 2)
	for _, part := range in {
		bucket.AppendList(part)
	}
	xsort.RadixByU(bucket)
	return bucket
}
