package main

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/edge"
	"repro/internal/pipeline"
	"repro/internal/sparse"
)

// checkResponse is the gate every svc.Run response passes: the fixed
// iteration count, the full matrix mass, a filtered matrix that kept
// some but not all entries, and a finite, non-negative rank vector of
// length N.  When want is non-nil the ranks must also equal it bit for
// bit.
func checkResponse(res *pipeline.Result, scale int, want []float64) error {
	n := 1 << scale
	m := uint64(edgeFactor) << scale
	switch {
	case res == nil:
		return fmt.Errorf("no result")
	case res.RankIterations != iterations:
		return fmt.Errorf("RankIterations = %d, want %d", res.RankIterations, iterations)
	case res.MatrixMass != float64(m):
		return fmt.Errorf("MatrixMass = %v, want M = %d", res.MatrixMass, m)
	case res.NNZ <= 0 || uint64(res.NNZ) >= m:
		return fmt.Errorf("NNZ = %d, want in (0, %d)", res.NNZ, m)
	case len(res.Rank) != n:
		return fmt.Errorf("rank length %d, want %d", len(res.Rank), n)
	}
	for i, x := range res.Rank {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			return fmt.Errorf("rank[%d] = %v, want finite and non-negative", i, x)
		}
	}
	if want != nil {
		return sameBits("rank", res.Rank, want)
	}
	return nil
}

// sameBits reports the first element where got and want differ in any bit.
func sameBits(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s[%d] = %v, want %v (bit-for-bit)", what, i, got[i], want[i])
		}
	}
	return nil
}

// sameEdges reports whether two edge lists are identical.
func sameEdges(got, want *edge.List) error {
	if got.Len() != want.Len() {
		return fmt.Errorf("edge count %d, want %d", got.Len(), want.Len())
	}
	for i := range want.U {
		if got.U[i] != want.U[i] || got.V[i] != want.V[i] {
			return fmt.Errorf("edge %d = (%d,%d), want (%d,%d)", i, got.U[i], got.V[i], want.U[i], want.V[i])
		}
	}
	return nil
}

// sameMatrix reports whether two CSR matrices are identical bit for bit.
func sameMatrix(got, want *sparse.CSR) error {
	if got.N != want.N || len(got.RowPtr) != len(want.RowPtr) || got.NNZ() != want.NNZ() {
		return fmt.Errorf("matrix shape (n=%d, nnz=%d), want (n=%d, nnz=%d)", got.N, got.NNZ(), want.N, want.NNZ())
	}
	for i := range want.RowPtr {
		if got.RowPtr[i] != want.RowPtr[i] {
			return fmt.Errorf("RowPtr[%d] = %d, want %d", i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	for k := range want.Col {
		if got.Col[k] != want.Col[k] {
			return fmt.Errorf("Col[%d] = %d, want %d", k, got.Col[k], want.Col[k])
		}
	}
	return sameBits("Val", got.Val, want.Val)
}

// commTotal is every metered byte of a CommStats record.
func commTotal(c dist.CommStats) uint64 {
	return c.AllToAllBytes + c.AllReduceBytes + c.BroadcastBytes
}

// checkWire is the socket fabric's identity: the payload bytes measured
// on the wire equal the metered CommStats total.
func checkWire(op string, w *dist.WireStats, c dist.CommStats) error {
	if w == nil {
		return fmt.Errorf("%s: no wire record", op)
	}
	if w.DataBytes != commTotal(c) {
		return fmt.Errorf("%s: Wire.DataBytes = %d, metered CommStats = %d", op, w.DataBytes, commTotal(c))
	}
	return nil
}
