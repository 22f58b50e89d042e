package dist

// The coordinator and the workers decode blocks and matrices from a
// socket; a tampered payload must end in an error, never a panic or a
// silently corrupt assembled matrix.

import (
	"testing"
)

func TestWireBlockStateRejectsTampering(t *testing.T) {
	const p, rank = 3, 1
	st, n := testBlock(t, p, rank)
	if len(st.danglingRows) == 0 || st.blk.NNZ() < 2 {
		t.Fatal("test block too small to tamper with")
	}
	// fresh returns an untampered deep copy of the rank's wire block.
	fresh := func() *wireBlock {
		w := stateToWire(st)
		w.RowPtr = append([]int64(nil), w.RowPtr...)
		w.Col = append([]uint32(nil), w.Col...)
		w.Val = append([]float64(nil), w.Val...)
		w.DanglingRows = append([]int(nil), w.DanglingRows...)
		return w
	}
	if _, err := fresh().state(n, p, rank); err != nil {
		t.Fatalf("untampered block rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		tamper func(w *wireBlock)
	}{
		{"Lo shifted", func(w *wireBlock) { w.Lo++ }},
		{"Hi shifted", func(w *wireBlock) { w.Hi++ }},
		{"N too small", func(w *wireBlock) { w.N-- }},
		{"N too large", func(w *wireBlock) { w.N++ }},
		{"row dropped", func(w *wireBlock) { // a valid CSR one row short
			w.RowPtr = w.RowPtr[:len(w.RowPtr)-1]
			nnz := w.RowPtr[len(w.RowPtr)-1]
			w.Col, w.Val = w.Col[:nnz], w.Val[:nnz]
		}},
		{"no RowPtr", func(w *wireBlock) { w.RowPtr = nil }},
		{"RowPtr overruns Col", func(w *wireBlock) { w.RowPtr[1] = int64(len(w.Col)) + 10 }},
		{"RowPtr tail", func(w *wireBlock) { w.RowPtr[len(w.RowPtr)-1]-- }},
		{"column out of range", func(w *wireBlock) { w.Col[len(w.Col)-1] = uint32(n) }},
		{"column repeated in a row", func(w *wireBlock) {
			for i := 0; ; i++ {
				if k := w.RowPtr[i]; w.RowPtr[i+1]-k >= 2 {
					w.Col[k+1] = w.Col[k]
					return
				}
			}
		}},
		{"Val short", func(w *wireBlock) { w.Val = w.Val[:len(w.Val)-1] }},
		{"dangling row outside block", func(w *wireBlock) { w.DanglingRows[0] = w.Hi }},
	} {
		w := fresh()
		tc.tamper(w)
		if _, err := w.state(n, p, rank); err == nil {
			t.Errorf("%s: tampered block accepted", tc.name)
		}
	}
	// The same block is wrong for every other rank and rank count.
	for _, other := range []struct{ n, p, rank int }{{n, p, 0}, {n, p, 2}, {n, p + 1, rank}, {n + 1, p, rank}} {
		if _, err := fresh().state(other.n, other.p, other.rank); err == nil {
			t.Errorf("block of rank %d/%d accepted as rank %d/%d at n=%d", rank, p, other.rank, other.p, other.n)
		}
	}
}

func TestWireMatrixRejectsTampering(t *testing.T) {
	st, n := testBlock(t, 1, 0)
	fresh := func() *wireMatrix {
		m := matrixToWire(st.blk)
		m.RowPtr = append([]int64(nil), m.RowPtr...)
		m.Col = append([]uint32(nil), m.Col...)
		m.Val = append([]float64(nil), m.Val...)
		return m
	}
	if _, err := fresh().csr(); err != nil {
		t.Fatalf("untampered matrix rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		tamper func(m *wireMatrix)
	}{
		{"not square", func(m *wireMatrix) { m.N++ }},
		{"no RowPtr", func(m *wireMatrix) { m.RowPtr = nil }},
		{"RowPtr overruns Col", func(m *wireMatrix) { m.RowPtr[1] = int64(len(m.Col)) + 10 }},
		{"column out of range", func(m *wireMatrix) { m.Col[0] = uint32(n) }},
		{"Col short", func(m *wireMatrix) { m.Col = m.Col[:len(m.Col)-1] }},
	} {
		m := fresh()
		tc.tamper(m)
		if _, err := m.csr(); err == nil {
			t.Errorf("%s: tampered matrix accepted", tc.name)
		}
	}
}
