package sparse

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/edge"
)

// MaxDim is the largest supported matrix dimension (uint32 column labels).
const MaxDim = 1 << 32

// CSR is a sparse matrix in compressed sparse row form.
// Row i's entries live in Col[RowPtr[i]:RowPtr[i+1]] (column indices,
// strictly increasing within a row) and Val likewise.
//
// A square matrix has Rows() == N.  A row block — the rows [lo, hi) of a
// square matrix, as each internal/dist rank holds — has Rows() == hi-lo,
// local row i being global row lo+i, over all N columns.  OutDegrees,
// Compact, ScaleRows, VxM and Validate work on either shape; Transpose,
// MxV and Dense assume a square matrix.
type CSR struct {
	// N is the column count (the matrix dimension of a square matrix).
	N int
	// RowPtr has length Rows()+1; RowPtr[0] == 0 and RowPtr[Rows()] == NNZ.
	RowPtr []int64
	// Col holds the column index of each stored entry.
	Col []uint32
	// Val holds the value of each stored entry.
	Val []float64
}

// NNZ returns the number of stored entries (including explicit zeros).
func (a *CSR) NNZ() int { return len(a.Col) }

// Rows returns the stored row count: N for a square matrix, hi-lo for a
// row block.
func (a *CSR) Rows() int { return len(a.RowPtr) - 1 }

// Footprint returns the matrix's in-memory size in bytes — the three
// CSR arrays at their allocated capacity.  The service layer's staged
// artifact cache charges resident matrices at this cost.
func (a *CSR) Footprint() int64 {
	return int64(cap(a.RowPtr))*8 + int64(cap(a.Col))*4 + int64(cap(a.Val))*8
}

// SumValues returns the sum of all stored values.  For the kernel-2
// adjacency matrix before filtering this must equal M, the paper's
// "all the entries in A should sum to M" check.
func (a *CSR) SumValues() float64 {
	var s float64
	for _, v := range a.Val {
		s += v
	}
	return s
}

// At returns the value at (i, j), zero if no entry is stored.
// It runs a binary search within row i; intended for tests and validation,
// not inner loops.
func (a *CSR) At(i, j int) float64 {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	row := a.Col[lo:hi]
	k := sort.Search(len(row), func(k int) bool { return row[k] >= uint32(j) })
	if k < len(row) && row[k] == uint32(j) {
		return a.Val[lo+int64(k)]
	}
	return 0
}

// Clone returns a deep copy of the matrix.
func (a *CSR) Clone() *CSR {
	b := &CSR{
		N:      a.N,
		RowPtr: append([]int64(nil), a.RowPtr...),
		Col:    append([]uint32(nil), a.Col...),
		Val:    append([]float64(nil), a.Val...),
	}
	return b
}

// Validate checks structural invariants: monotone row pointers, in-range
// and strictly increasing column indices.  It is used by tests, by the
// pipeline's self-checks, and on matrices and row blocks decoded from a
// socket.  It checks the row pointers before reading any entry, so a
// malformed matrix yields an error, never a panic.
func (a *CSR) Validate() error {
	if a.N < 0 || a.Rows() < 0 {
		return fmt.Errorf("sparse: N = %d with RowPtr length %d, want N >= 0 and length >= 1", a.N, len(a.RowPtr))
	}
	if a.RowPtr[0] != 0 || a.RowPtr[a.Rows()] != int64(len(a.Col)) || len(a.Col) != len(a.Val) {
		return fmt.Errorf("sparse: inconsistent RowPtr bounds or slice lengths")
	}
	for i := 0; i < a.Rows(); i++ {
		if a.RowPtr[i] > a.RowPtr[i+1] {
			return fmt.Errorf("sparse: row %d has negative extent", i)
		}
	}
	for i := 0; i < a.Rows(); i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		for k := lo; k < hi; k++ {
			if int(a.Col[k]) >= a.N {
				return fmt.Errorf("sparse: row %d entry %d: column %d out of range", i, k, a.Col[k])
			}
			if k > lo && a.Col[k] <= a.Col[k-1] {
				return fmt.Errorf("sparse: row %d columns not strictly increasing at %d", i, k)
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Builders

// FromEdges builds the N×N counting adjacency matrix from an edge list in
// arbitrary order: A(u,v) = multiplicity of edge (u,v).  It does not modify
// the input.  Cost is O(M + N) time using a counting pass over start
// vertices followed by per-row sorting and duplicate accumulation.
func FromEdges(l *edge.List, n int) (*CSR, error) {
	return FromEdgesRows(l, 0, n, n)
}

// FromEdgesRows is FromEdges for the row block [lo, hi) of the N×N
// counting matrix: every start vertex must lie in [lo, hi), and the
// result has hi-lo rows (local row i is global row lo+i) over n columns.
// The stacked blocks of any row partition equal FromEdges of the whole
// list bit for bit; internal/dist builds each rank's block with it.
func FromEdgesRows(l *edge.List, lo, hi, n int) (*CSR, error) {
	if err := checkDim(n); err != nil {
		return nil, err
	}
	if lo < 0 || lo > hi || hi > n {
		return nil, fmt.Errorf("sparse: row range [%d,%d) outside [0,%d]", lo, hi, n)
	}
	rows, m := hi-lo, l.Len()
	// Count row occupancy (with duplicates).
	rowPtr := make([]int64, rows+1)
	for _, u := range l.U {
		if u < uint64(lo) || u >= uint64(hi) {
			return nil, fmt.Errorf("sparse: start vertex %d outside rows [%d,%d)", u, lo, hi)
		}
		rowPtr[u-uint64(lo)+1]++
	}
	for i := 0; i < rows; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	// Scatter columns into row buckets.
	cols := make([]uint32, m)
	next := make([]int64, rows)
	copy(next, rowPtr[:rows])
	for i := 0; i < m; i++ {
		v := l.V[i]
		if v >= uint64(n) {
			return nil, fmt.Errorf("sparse: end vertex %d out of range N=%d", v, n)
		}
		u := l.U[i] - uint64(lo)
		cols[next[u]] = uint32(v)
		next[u]++
	}
	return compressRows(rows, n, rowPtr, cols), nil
}

// FromSortedEdges builds the counting adjacency matrix from an edge list
// already sorted by start vertex (kernel 1's postcondition), skipping the
// scatter pass.
func FromSortedEdges(l *edge.List, n int) (*CSR, error) {
	if err := checkDim(n); err != nil {
		return nil, err
	}
	if !l.IsSortedByU() {
		return nil, fmt.Errorf("sparse: FromSortedEdges input is not sorted by start vertex")
	}
	m := l.Len()
	rowPtr := make([]int64, n+1)
	cols := make([]uint32, m)
	for i := 0; i < m; i++ {
		u, v := l.U[i], l.V[i]
		if u >= uint64(n) || v >= uint64(n) {
			return nil, fmt.Errorf("sparse: edge (%d,%d) out of range N=%d", u, v, n)
		}
		rowPtr[u+1]++
		cols[i] = uint32(v)
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	return compressRows(n, n, rowPtr, cols), nil
}

func checkDim(n int) error {
	if n <= 0 || int64(n) > MaxDim {
		return fmt.Errorf("sparse: dimension %d out of range (0, 2^32]", n)
	}
	return nil
}

// compressRows sorts each row bucket of cols, accumulates duplicates into
// counts, and assembles the final rows×n CSR.  rowPtr delimits the
// uncompressed buckets and is consumed.
func compressRows(rows, n int, rowPtr []int64, cols []uint32) *CSR {
	outPtr := make([]int64, rows+1)
	outCols := cols[:0] // compact in place: writes never overtake reads
	vals := make([]float64, 0, len(cols))
	w := int64(0)
	for i := 0; i < rows; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		row := cols[lo:hi]
		sortUint32(row)
		for k := 0; k < len(row); {
			c := row[k]
			cnt := 1
			for k+cnt < len(row) && row[k+cnt] == c {
				cnt++
			}
			outCols = append(outCols[:w], c)
			vals = append(vals, float64(cnt))
			w++
			k += cnt
		}
		outPtr[i+1] = w
	}
	return &CSR{N: n, RowPtr: outPtr, Col: outCols[:w], Val: vals}
}

// sortUint32 sorts small uint32 slices; insertion sort below a threshold,
// sort.Slice above it.  Row lengths in Kronecker graphs are mostly tiny
// with a few huge hub rows, so both paths matter.
func sortUint32(s []uint32) {
	if len(s) < 24 {
		for i := 1; i < len(s); i++ {
			v := s[i]
			j := i - 1
			for j >= 0 && s[j] > v {
				s[j+1] = s[j]
				j--
			}
			s[j+1] = v
		}
		return
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

// FromTriplets builds a CSR from explicit (row, col, val) triplets,
// accumulating duplicates by addition.  It is the general GraphBLAS-style
// build used in tests and by the dense converter.
func FromTriplets(n int, rows, cols []int, vals []float64) (*CSR, error) {
	if err := checkDim(n); err != nil {
		return nil, err
	}
	if len(rows) != len(cols) || len(rows) != len(vals) {
		return nil, fmt.Errorf("sparse: triplet slices have unequal lengths %d/%d/%d", len(rows), len(cols), len(vals))
	}
	type entry struct {
		r, c int
		v    float64
	}
	entries := make([]entry, len(rows))
	for i := range rows {
		if rows[i] < 0 || rows[i] >= n || cols[i] < 0 || cols[i] >= n {
			return nil, fmt.Errorf("sparse: triplet (%d,%d) out of range N=%d", rows[i], cols[i], n)
		}
		entries[i] = entry{rows[i], cols[i], vals[i]}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].r != entries[j].r {
			return entries[i].r < entries[j].r
		}
		return entries[i].c < entries[j].c
	})
	a := &CSR{N: n, RowPtr: make([]int64, n+1)}
	for i := 0; i < len(entries); {
		e := entries[i]
		sum := e.v
		j := i + 1
		for j < len(entries) && entries[j].r == e.r && entries[j].c == e.c {
			sum += entries[j].v
			j++
		}
		a.Col = append(a.Col, uint32(e.c))
		a.Val = append(a.Val, sum)
		a.RowPtr[e.r+1] = int64(len(a.Col))
		i = j
	}
	for i := 0; i < n; i++ {
		if a.RowPtr[i+1] < a.RowPtr[i] {
			a.RowPtr[i+1] = a.RowPtr[i]
		}
	}
	return a, nil
}

// ---------------------------------------------------------------------------
// Reductions and scaling (the kernel-2 steps)

// InDegrees returns the column sums din = sum(A, 1) as a dense vector.
func (a *CSR) InDegrees() []float64 {
	din := make([]float64, a.N)
	for k, c := range a.Col {
		din[c] += a.Val[k]
	}
	return din
}

// OutDegrees returns the row sums dout = sum(A, 2) as a dense vector of
// length Rows().
func (a *CSR) OutDegrees() []float64 {
	dout := make([]float64, a.Rows())
	for i := range dout {
		var s float64
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			s += a.Val[k]
		}
		dout[i] = s
	}
	return dout
}

// ZeroColumns sets to zero every stored entry whose column index c has
// mask[c] true, leaving explicit zeros in place (use Compact to drop them).
// It returns the number of entries zeroed.
func (a *CSR) ZeroColumns(mask []bool) int {
	zeroed := 0
	for k, c := range a.Col {
		if mask[c] && a.Val[k] != 0 {
			a.Val[k] = 0
			zeroed++
		}
	}
	return zeroed
}

// Compact removes all stored entries with value zero, preserving order.
func (a *CSR) Compact() {
	w := int64(0)
	read := int64(0)
	for i := 0; i < a.Rows(); i++ {
		hi := a.RowPtr[i+1]
		for ; read < hi; read++ {
			if a.Val[read] != 0 {
				a.Col[w] = a.Col[read]
				a.Val[w] = a.Val[read]
				w++
			}
		}
		a.RowPtr[i+1] = w
	}
	a.Col = a.Col[:w]
	a.Val = a.Val[:w]
}

// ScaleRows divides every entry of row i by scale[i] wherever scale[i] is
// non-zero: the kernel-2 normalization A(i,:) = A(i,:) / dout(i) for
// dout(i) > 0.  scale has length Rows().
func (a *CSR) ScaleRows(scale []float64) {
	for i := 0; i < a.Rows(); i++ {
		s := scale[i]
		if s == 0 {
			continue
		}
		inv := 1 / s
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			a.Val[k] *= inv
		}
	}
}

// Kernel2Mask returns the benchmark's kernel-2 column-elimination mask
// for the in-degree vector din: true for columns whose in-degree equals
// max(din) (super-nodes) or exactly 1 (leaves); empty columns are never
// marked.  It also returns max(din) and the super-node and leaf column
// counts.  Both the serial filter (pipeline.ApplyKernel2Filter) and the
// distributed filter (internal/dist) derive their masks here, which is
// what keeps the two bit-identical.
func Kernel2Mask(din []float64) (mask []bool, maxDin float64, superNodes, leaves int) {
	maxDin = MaxValue(din)
	mask = make([]bool, len(din))
	for j, d := range din {
		switch {
		case d == 0:
			// empty column: nothing to eliminate
		case d == maxDin:
			mask[j] = true
			superNodes++
		case d == 1:
			mask[j] = true
			leaves++
		}
	}
	return mask, maxDin, superNodes, leaves
}

// MaxValue returns the maximum of vec, or 0 for an empty vector.
func MaxValue(vec []float64) float64 {
	m := math.Inf(-1)
	for _, v := range vec {
		if v > m {
			m = v
		}
	}
	if math.IsInf(m, -1) {
		return 0
	}
	return m
}

// ---------------------------------------------------------------------------
// Transpose and dense conversion

// Transpose returns Aᵀ as a new CSR.  The transposed matrix doubles as the
// CSC view of A, giving the gather formulation of the kernel-3 product.
func (a *CSR) Transpose() *CSR {
	n := a.N
	t := &CSR{N: n, RowPtr: make([]int64, n+1), Col: make([]uint32, a.NNZ()), Val: make([]float64, a.NNZ())}
	for _, c := range a.Col {
		t.RowPtr[c+1]++
	}
	for i := 0; i < n; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := make([]int64, n)
	copy(next, t.RowPtr[:n])
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			c := a.Col[k]
			p := next[c]
			t.Col[p] = uint32(i)
			t.Val[p] = a.Val[k]
			next[c]++
		}
	}
	return t
}

// Dense returns the matrix as a dense row-major [][]float64.  It refuses
// dimensions above 4096 to avoid accidental huge allocations; it exists for
// the paper's small-scale eigenvector validation.
func (a *CSR) Dense() ([][]float64, error) {
	if a.N > 4096 {
		return nil, fmt.Errorf("sparse: Dense refused for N = %d > 4096", a.N)
	}
	d := make([][]float64, a.N)
	for i := range d {
		d[i] = make([]float64, a.N)
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			d[i][a.Col[k]] = a.Val[k]
		}
	}
	return d, nil
}

// ---------------------------------------------------------------------------
// Vector-matrix products (the kernel-3 primitive)

// VxM computes out = r·A (row vector times matrix) with the scatter
// formulation: for every stored entry A(i,j), out[j] += r[i]·A(i,j).
// r has length Rows() — a row block takes its slice r[lo:hi] of the
// global vector — and out must have length N and is overwritten.  Rows
// are visited in ascending order, so summing the partial products of a
// row partition's blocks in block order reproduces the square product's
// floating-point association.
func (a *CSR) VxM(out, r []float64) {
	for i := range out {
		out[i] = 0
	}
	for i := 0; i < a.Rows(); i++ {
		ri := r[i]
		if ri == 0 {
			continue
		}
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			out[a.Col[k]] += ri * a.Val[k]
		}
	}
}

// MxV computes out = A·x (matrix times column vector) with the gather
// formulation: out[i] = Σ_k A(i,k)·x[k].  Applied to Aᵀ this evaluates
// r·A by gathering, the cache-friendly alternative to VxM's scattering.
func (a *CSR) MxV(out, x []float64) {
	for i := 0; i < a.N; i++ {
		var s float64
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			s += a.Val[k] * x[a.Col[k]]
		}
		out[i] = s
	}
}

// MxVRange computes the rows [lo, hi) of out = A·x — the gather product
// restricted to a contiguous row range.  Each output element depends only
// on its own row, so disjoint ranges may be computed concurrently with no
// coordination and no effect on the result's bits; this is the primitive
// the persistent worker team of pagerank's parallel engine partitions over.
func (a *CSR) MxVRange(out, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var s float64
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			s += a.Val[k] * x[a.Col[k]]
		}
		out[i] = s
	}
}

// ---------------------------------------------------------------------------
// Vector helpers shared by the PageRank kernels

// Sum returns the sum of the vector's elements.
func Sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Norm1 returns the 1-norm (sum of absolute values).
func Norm1(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// Scale multiplies every element of v by a.
func Scale(v []float64, a float64) {
	for i := range v {
		v[i] *= a
	}
}

// AddConst adds a to every element of v.
func AddConst(v []float64, a float64) {
	for i := range v {
		v[i] += a
	}
}

// Diff1 returns the 1-norm of (a - b); the convergence measure the paper
// mentions real PageRank deployments use.
func Diff1(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}
