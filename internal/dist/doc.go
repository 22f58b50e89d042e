// Package dist is the distributed-memory runtime of the PageRank pipeline
// benchmark: it executes kernels 1-3 over p processor ranks with exact
// communication accounting, reproducing the parallel analysis of the
// paper's §V (distributed sample sort for kernel 1, 1D row-block
// decomposition with a rank-vector all-reduce per iteration for kernel 3).
//
// Every rank owns a contiguous block of rows (vertices), stored as a
// rectangular sparse.CSR (hi-lo+1 row pointers, not n+1), and a
// contiguous chunk of the input edge list.  The kernel-2 and kernel-3
// matrix steps on a block are the sparse package's own operations — the
// ones the serial kernels call — so this package holds no second copy of
// them.  Data crossing rank boundaries is metered by the collective
// layer; the closed-form model PredictedCommBytes reproduces the
// collective volume exactly, byte for byte, which the prreport command
// asserts.
//
// Execute is the single entry point: a Spec names the program (Op), the
// rank count and the inputs, and its Config picks the fabric (ExecMode)
// the one rank program runs on:
//
//   - ExecGoroutine (the default) runs p concurrent goroutine ranks that
//     exchange real messages over typed channels;
//   - ExecSocket runs p worker processes that exchange the same messages
//     over unix-domain or TCP sockets, so the metered bytes can be checked
//     against bytes on an actual wire (DESIGN.md §13).
//
// Config.Workers adds the hybrid second level of the paper's
// decomposition: that many worker goroutines inside each rank for its
// local kernel-3 block product and kernel-1 partitioning.  The worker
// count is a pure wall-clock knob — results, CommStats and
// PredictedCommBytes are bit-for-bit invariant in it — and the
// steady-state iteration performs zero heap allocations (pooled
// collective buffers, persistent worker teams, preallocated iteration
// vectors; DESIGN.md §7).
//
// Both fabrics execute the same program with the same collectives and
// wire-cost formulas (DESIGN.md §5 documents the contract), so their
// results are bit-for-bit identical and their CommStats are equal — to
// each other and to PredictedCommBytes.  Relative to the serial engines,
// kernel 1's output equals the serial stable radix sort exactly for every
// p, kernel 2's assembled matrix is bit-for-bit the serial kernel-2
// output, and kernel 3 matches the serial engines to ~1e-12 (floating-
// point sums re-associate across rank boundaries, the only deviation).
//
// Kernel 1 additionally has an out-of-core regime (OpSortExternal;
// DESIGN.md §6) for the paper's "edge vectors exceed RAM" case: each rank
// spills bounded sorted runs to a vfs.FS, the runs are routed through the
// same metered all-to-all as sorted segments, and per-bucket k-way merges
// reproduce the serial sort bit for bit for every p and every run-buffer
// size, with the storage round trip metered separately in
// ExtSortResult.Spill.
package dist
