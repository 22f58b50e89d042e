// Package sparse implements the sparse matrix machinery underlying kernels
// 2 and 3 of the PageRank pipeline benchmark.
//
// Kernel 2 constructs the N×N adjacency matrix A = sparse(u, v, 1, N, N)
// where A(u,v) counts duplicate edges, computes the in-degree (column sums),
// zeroes the max-in-degree columns (super-nodes) and in-degree-1 columns
// (leaves), and divides every non-empty row by its out-degree.  Kernel 3
// repeatedly evaluates the row-vector × matrix product r·A.
//
// The package provides a CSR (compressed sparse row) matrix with float64
// values and uint32 column indices (dimension ≤ 2^32, far above feasible
// benchmark scales), builders from edge lists in several sortedness states,
// column/row reductions and scaling, transposition, dense conversion for
// validation, and vector-matrix products in both scatter (row-major) and
// gather (transposed) forms.  The same CSR type holds a rectangular row
// block, so the distributed kernels (internal/dist) run these operations
// on each rank's rows instead of keeping a copy of them.
package sparse
