package dist

// The all-to-all oracle: the personalized-exchange volume of kernels 1 and
// 2 computed from the input alone, without running a rank.  Kernel-2
// routing sends 16 B for every edge whose row owner is not its source
// chunk; the sample sort sends 8 B for every sample gathered at a non-root
// rank plus 16 B for every edge whose key-range bucket is not its source
// chunk.  Both fabrics must meter exactly these bytes.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/edge"
	"repro/internal/kronecker"
	"repro/internal/pagerank"
)

// crossChunkBytes prices 16 B for every edge that dest sends away from
// the input chunk (blockBounds over the edge list) it starts in.
func crossChunkBytes(l *edge.List, p int, dest func(u uint64) int) uint64 {
	var b uint64
	for r := 0; r < p; r++ {
		lo, hi := blockBounds(l.Len(), p, r)
		for i := lo; i < hi; i++ {
			if dest(l.U[i]) != r {
				b += 16
			}
		}
	}
	return b
}

// kernel2AllToAll is the kernel-2 routing volume: edges travel to the
// owner of their row.
func kernel2AllToAll(l *edge.List, n, p int) uint64 {
	return crossChunkBytes(l, p, func(u uint64) int { return blockOwner(n, p, int(u)) })
}

// sortAllToAll is the sample sort's volume: the non-root samples gathered
// at rank 0, then edges travel to the bucket owning their key.
func sortAllToAll(l *edge.List, p int) uint64 {
	if p == 1 || l.Len() == 0 {
		return 0
	}
	var samples []uint64
	var b uint64
	for r := 0; r < p; r++ {
		lo, hi := blockBounds(l.Len(), p, r)
		keys := sampleChunk(l, lo, hi)
		samples = append(samples, keys...)
		if r != 0 {
			b += 8 * uint64(len(keys))
		}
	}
	splitters := chooseSplitters(samples, p)
	return b + crossChunkBytes(l, p, func(u uint64) int { return destRank(splitters, u) })
}

func TestAllToAllBytesEqualOracle(t *testing.T) {
	kcfg := kronecker.New(7, 5)
	kron, err := kronecker.Generate(kcfg)
	if err != nil {
		t.Fatal(err)
	}
	few := edge.NewList(64)
	for i := 0; i < 64; i++ {
		few.Append(uint64(i%2), uint64(i))
	}
	inputs := []struct {
		name string
		l    *edge.List
		n    int
	}{
		{"kronecker", kron, int(kcfg.N())},
		{"two-distinct-u", few, 64},
	}
	ctx := context.Background()
	for _, in := range inputs {
		for _, p := range []int{1, 2, 3, 5, 8} {
			k2, k1 := kernel2AllToAll(in.l, in.n, p), sortAllToAll(in.l, p)
			if p > 1 && (k2 == 0 || k1 == 0) {
				t.Fatalf("%s p=%d: degenerate oracle (k2 %d, k1 %d bytes)", in.name, p, k2, k1)
			}
			// The socket fabric runs one op per exchange kind on one
			// input: its workers run the same build and out-of-core
			// programs, and every run spawns p processes.
			cases := []struct {
				op     Op
				want   uint64
				socket bool
			}{
				{OpRun, k2, in.name == "kronecker"},
				{OpBuildFiltered, k2, false},
				{OpSort, k1, in.name == "kronecker"},
				{OpSortExternal, k1, false},
			}
			for _, tc := range cases {
				modes := []ExecMode{ExecGoroutine}
				if tc.socket {
					modes = append(modes, ExecSocket)
				}
				for _, mode := range modes {
					out, err := Execute(ctx, Spec{
						Config: Config{Mode: mode}, Op: tc.op, Edges: in.l, N: in.n, Procs: p,
						PageRank: pagerank.Options{Seed: 1, Iterations: 2},
						Ext:      ExtSortConfig{RunEdges: 40},
					})
					what := fmt.Sprintf("%s p=%d %v %v", in.name, p, mode, tc.op)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					var got uint64
					switch {
					case out.Run != nil:
						got = out.Run.Comm.AllToAllBytes
					case out.Build != nil:
						got = out.Build.Comm.AllToAllBytes
					case out.Sort != nil:
						got = out.Sort.Comm.AllToAllBytes
					default:
						got = out.ExtSort.Comm.AllToAllBytes
					}
					if got != tc.want {
						t.Errorf("%s: metered %d all-to-all bytes, oracle %d", what, got, tc.want)
					}
				}
			}
		}
	}
}
