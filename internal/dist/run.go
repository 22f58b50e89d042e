package dist

// Distributed kernels 2 and 3: 1D row-block decomposition.  Each processor
// owns a contiguous block of rows of the adjacency matrix; kernel 2 routes
// edges to the row owner, builds the block's counting matrix
// (sparse.FromEdgesRows), all-reduces the in-degree vector to apply the
// paper's super-node/leaf filter globally, and normalizes rows locally.  Kernel 3 keeps the rank
// vector replicated: every iteration each processor computes the partial
// product of its row block and the partials are summed by one all-reduce —
// the communication pattern whose closed form the paper derives and
// PredictedCommBytes reproduces.
//
// buildRank and iterateRank below are the rank programs; the goroutine
// fabric (spawnRanks) and the socket workers (sockworker.go) run them
// unchanged.  pagerank.Engine supplies the update semantics, which is what
// keeps the result within ~1e-12 of the serial engines.

import (
	"context"
	"fmt"

	"repro/internal/edge"
	"repro/internal/pagerank"
	"repro/internal/sparse"
)

// Result is the outcome of a distributed kernel-2/kernel-3 run.
type Result struct {
	// Rank is the final rank vector, matching the serial engines to ~1e-12.
	Rank []float64
	// NNZ is the global stored-entry count of the filtered matrix.
	NNZ int
	// Comm is the full communication record of the run.
	Comm CommStats
	// Iterations is the number of PageRank update steps performed.
	Iterations int
	// RankSeconds is each rank's wall-clock execution time, one entry
	// per rank; perfmodel's CompareRankElapsed relates it to the parallel
	// hardware model.  It is nil only when a resumed checkpoint already
	// covered the run and no rank executed.
	RankSeconds []float64
	// Checkpoint reports what the checkpoint/restart machinery did; nil
	// when the Spec enabled neither checkpointing nor resume.
	Checkpoint *CheckpointStats
	// Wire is the measured socket traffic, summed over the workers' mesh
	// links (ExecSocket only, else nil).  Wire.DataBytes equals Comm's
	// total byte count identically — the metered model tested against an
	// actual network.
	Wire *WireStats
}

// BuildResult is the outcome of the distributed kernel 2 alone.
type BuildResult struct {
	// Matrix is the assembled global filtered, normalized matrix — bit-for-
	// bit equal to the serial kernel-2 output (sparse.FromEdges followed by
	// the kernel-2 filter), because row blocks are disjoint and integer
	// degree sums are exact.
	Matrix *sparse.CSR
	// Mass is sum(A) before filtering (equals M for a full edge list).
	Mass float64
	// NNZ is the filtered stored-entry count.
	NNZ int
	// Comm records the edge routing and the in-degree all-reduce.
	Comm CommStats
	// Wire is the measured socket traffic (ExecSocket only, else nil).
	Wire *WireStats
}

// rankState is one processor's share of the matrix: the rectangular row
// block [lo, hi) as a sparse.CSR with hi-lo rows over all n columns, plus
// the owned dangling rows.  Both fabrics use it; p ranks together hold
// n+p row pointers, the footprint a real distributed memory forces.
type rankState struct {
	// lo is the first owned global row: block row i is global row lo+i.
	lo  int
	blk *sparse.CSR
	// danglingRows lists owned rows (global indices) with zero out-degree
	// after filtering.
	danglingRows []int
}

// hi returns the end of the owned row range [lo, hi).
func (st *rankState) hi() int { return st.lo + st.blk.Rows() }

// validateRun checks the preconditions of the kernel-2 ops.  Execute
// validates before any rank starts, so a bad edge cannot strand the other
// ranks inside a collective.
func validateRun(l *edge.List, n, p int) error {
	if l == nil {
		return fmt.Errorf("dist: nil edge list")
	}
	if n < 1 {
		return fmt.Errorf("dist: n = %d, want >= 1", n)
	}
	if p < 1 {
		return fmt.Errorf("dist: p = %d, want >= 1", p)
	}
	for i := 0; i < l.Len(); i++ {
		if l.U[i] >= uint64(n) || l.V[i] >= uint64(n) {
			return fmt.Errorf("dist: edge (%d,%d) out of range N=%d", l.U[i], l.V[i], n)
		}
	}
	return nil
}

// routeChunk partitions one rank's input chunk [lo, hi) of the global edge
// list by row owner, appending to the p per-destination outboxes — the
// local half of the kernel-2 all-to-all.
func routeChunk(out []*edge.List, l *edge.List, n, p, lo, hi int) {
	for i := lo; i < hi; i++ {
		d := blockOwner(n, p, int(l.U[i]))
		out[d].Append(l.U[i], l.V[i])
	}
}

// filterBlock applies the kernel-2 filter to one rank's block given the
// globally reduced in-degree vector, records the owned dangling rows, and
// returns the local stored-entry count — the purely local step between
// the in-degree all-reduce and the NNZ reduction.  The calls are
// pipeline.ApplyKernel2Filter's, on the block's rows, which is what keeps
// the distributed filter bit-identical to the serial one.
func filterBlock(st *rankState, din []float64) int {
	mask, _, _, _ := sparse.Kernel2Mask(din)
	st.blk.ZeroColumns(mask)
	st.blk.Compact()
	dout := st.blk.OutDegrees()
	st.blk.ScaleRows(dout)
	st.setDangling(dout)
	return st.blk.NNZ()
}

// setDangling records the owned rows whose out-degree in dout (indexed by
// block row) is zero.
func (st *rankState) setDangling(dout []float64) {
	for i, d := range dout {
		if d == 0 {
			st.danglingRows = append(st.danglingRows, st.lo+i)
		}
	}
}

// rowsOf returns the rows [lo, hi) of a global matrix as a row block
// sharing its Col/Val storage (the row pointers are rebased into a fresh
// hi-lo+1 slice).
func rowsOf(a *sparse.CSR, lo, hi int) *sparse.CSR {
	base := a.RowPtr[lo]
	rowPtr := make([]int64, hi-lo+1)
	for i := range rowPtr {
		rowPtr[i] = a.RowPtr[lo+i] - base
	}
	return &sparse.CSR{N: a.N, RowPtr: rowPtr, Col: a.Col[base:a.RowPtr[hi]], Val: a.Val[base:a.RowPtr[hi]]}
}

// matrixRank is rank r's state for OpRunMatrix: its row block of the
// given global matrix, viewed in place, and the block's dangling rows.
func matrixRank(a *sparse.CSR, p, r int) *rankState {
	lo, hi := blockBounds(a.N, p, r)
	st := &rankState{lo: lo, blk: rowsOf(a, lo, hi)}
	st.setDangling(st.blk.OutDegrees())
	return st
}

// assemble stacks the disjoint row blocks, in rank order, back into one
// global n×n CSR.
func assemble(states []*rankState, n int) *sparse.CSR {
	nnz := 0
	for _, st := range states {
		nnz += st.blk.NNZ()
	}
	out := &sparse.CSR{
		N:      n,
		RowPtr: make([]int64, 1, n+1),
		Col:    make([]uint32, 0, nnz),
		Val:    make([]float64, 0, nnz),
	}
	for _, st := range states {
		base := int64(len(out.Col))
		for _, ptr := range st.blk.RowPtr[1:] {
			out.RowPtr = append(out.RowPtr, base+ptr)
		}
		out.Col = append(out.Col, st.blk.Col...)
		out.Val = append(out.Val, st.blk.Val...)
	}
	return out
}

// danglingMassOf sums the rank mass sitting on one rank's owned dangling
// rows — the local contribution to the dangling-mass scalar all-reduce.
func danglingMassOf(st *rankState, r []float64) float64 {
	var s float64
	for _, i := range st.danglingRows {
		s += r[i]
	}
	return s
}

// runGoroutine executes OpRun or OpRunMatrix on goroutine ranks: OpRun
// builds each rank's block through kernel 2 first, OpRunMatrix views its
// row block of the given matrix.  Inputs were validated by Execute.
func runGoroutine(ctx context.Context, spec Spec, ck *ckptRun) (*Result, error) {
	n, opt, workers := specN(spec), spec.PageRank, spec.workers()
	out, err := spawnRanks(ctx, spec.Procs, func(c *rankComm) (o rankOutcome) {
		var st *rankState
		if spec.Op == OpRunMatrix {
			st = matrixRank(spec.Matrix, spec.Procs, c.rank)
		} else {
			st, o.mass, o.nnz = buildRank(c, spec.Edges, n)
		}
		o.rank, o.iters, o.err = iterateRank(ctx, c, st, n, opt, workers, ck)
		return o
	})
	if err != nil {
		return nil, err
	}
	if spec.Op == OpRunMatrix {
		out.result.NNZ = spec.Matrix.NNZ()
	}
	return out.result, nil
}

// buildFilteredGoroutine executes OpBuildFiltered on goroutine ranks; the
// driver assembles the global matrix from the joined blocks.
func buildFilteredGoroutine(ctx context.Context, spec Spec) (*BuildResult, error) {
	l, n, p := spec.Edges, spec.N, spec.Procs
	out, err := spawnRanks(ctx, p, func(c *rankComm) rankOutcome {
		st, mass, nnz := buildRank(c, l, n)
		return rankOutcome{st: st, mass: mass, nnz: nnz}
	})
	if err != nil {
		return nil, err
	}
	states := make([]*rankState, p)
	for r := range states {
		states[r] = out.outcomes[r].st
	}
	return &BuildResult{
		Matrix: assemble(states, n),
		Mass:   out.outcomes[0].mass,
		NNZ:    out.outcomes[0].nnz,
		Comm:   out.result.Comm,
	}, nil
}

// buildRank is one rank's kernel-2 program: route the owned input chunk,
// exchange edges all-to-all, build the block-local counting matrix, and
// apply the global filter through the in-degree all-reduce.  Inputs were
// validated by Execute, so the program cannot fail mid-collective.
func buildRank(c *rankComm, l *edge.List, n int) (*rankState, float64, int) {
	p := c.procs()
	lo, hi := blockBounds(l.Len(), p, c.rank)
	out := make([]*edge.List, p)
	for d := range out {
		out[d] = edge.NewList(0)
	}
	routeChunk(out, l, n, p, lo, hi)
	in := c.exchangeEdges(out)
	local := edge.NewList(0)
	for _, part := range in {
		local.AppendList(part)
	}
	rowLo, rowHi := blockBounds(n, p, c.rank)
	blk, err := sparse.FromEdgesRows(local, rowLo, rowHi, n)
	if err != nil {
		// Unreachable after validateRun; a failure here is a routing bug.
		panic(err)
	}
	mass := c.allReduceScalar(blk.SumValues())
	din := blk.InDegrees()
	c.allReduceSum(din)
	st := &rankState{lo: rowLo, blk: blk}
	nnz := int(c.allReduceScalar(float64(filterBlock(st, din))))
	return st, mass, nnz
}

// iterateRank is one rank's kernel-3 program: rank 0 materializes the
// initial vector and broadcasts it, then every rank drives the shared
// pagerank.Engine update on its private replica, with the step hook
// computing the block-local partial product and all-reducing it, and the
// dangling-mass hook all-reducing the owned dangling rows' mass.  Every
// replica follows a byte-identical trajectory — the all-reduce hands all
// ranks the root's rank-ordered sum — so rank 0's result is the global
// result.  With workers > 1 the
// local product runs on the rank's persistent hybrid team (spmvOf),
// bit-for-bit invariantly; combined with the engine's preallocated
// vectors and the fabric's pooled buffers, the steady-state iteration
// performs no heap allocation on any rank.
//
// The engine is driven through RunContext, so every rank checks ctx at
// its iteration boundary.  The first rank to observe cancellation
// returns ctx's error; spawnRanks' teardown then brings the fabric down
// under any peer still blocked in that iteration's collective, so the
// whole team unwinds promptly (DESIGN.md §8).  The hybrid team's close
// is deferred and runs on every exit path, unwinding included.
//
// The checkpoint runtime (ck, may be nil) installs the rank's
// post-iteration hook: at every epoch boundary the rank writes its own
// block chunk, agrees with its peers that all chunks landed, and rank 0
// commits the epoch — plus the planned rank failure, if any
// (checkpoint.go documents the protocol and the fault semantics).
func iterateRank(ctx context.Context, c *rankComm, st *rankState, n int, opt pagerank.Options, workers int, ck *ckptRun) ([]float64, int, error) {
	if c.rank != 0 {
		// Progress is a single-observer hook: the replicas step in
		// lockstep, so rank 0 reports for the team.
		opt.Progress = nil
	}
	var r0 []float64
	if c.rank == 0 {
		if opt.InitialRank != nil {
			r0 = opt.InitialRank
		} else {
			r0 = pagerank.InitVector(n, opt.Seed)
		}
	}
	opt.InitialRank = c.broadcastFloats(r0) // the engine copies, not aliases
	spmv, h := spmvOf(st, workers)
	if h != nil {
		defer h.close()
	}
	lo, hi := st.lo, st.hi()
	step := func(out, r []float64) {
		spmv(out, r[lo:hi])
		c.allReduceSum(out)
	}
	dangleMass := func(r []float64) float64 {
		return c.allReduceScalar(danglingMassOf(st, r))
	}
	e, err := pagerank.NewEngine(n, step, dangleMass, opt)
	if err != nil {
		return nil, 0, err
	}
	res, err := e.RunContextAfter(ctx, ck.afterRank(c, lo, hi))
	if err != nil {
		return nil, 0, err
	}
	return res.Rank, res.Iterations, nil
}
