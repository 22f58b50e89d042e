package dist_test

// Property tests for the hybrid intra-rank runtime (dist.Config.Workers):
// the worker count is a pure wall-clock knob.  For every p × w, on both
// fabrics, the rank vectors must equal the w = 1 goroutine run bit for
// bit, the CommStats record must be identical (intra-rank workers move no
// wire bytes), and the sorted kernel-1 output must equal the serial
// stable radix sort — DESIGN.md §7's invariants.

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/edge"
	"repro/internal/pagerank"
	"repro/internal/xsort"
)

// workerCounts crosses serial ranks, an even split and a worker count
// that exceeds some ranks' block sizes at small scales.
var workerCounts = []int{1, 2, 4}

// fabrics are the two execution modes the rank program runs on.
var fabrics = []dist.ExecMode{dist.ExecGoroutine, dist.ExecSocket}

// gridFabrics are the fabrics a p-grid test crosses at rank count p.  A
// socket run spawns p worker processes, so the grids take the socket
// fabric at one rank count only; socket_test.go covers it at every p.
func gridFabrics(p int) []dist.ExecMode {
	if p == 3 {
		return fabrics
	}
	return fabrics[:1]
}

// hybridFabrics narrows gridFabrics to one cell of a p × w grid: the
// socket fabric runs at p = 3 with two workers per rank.
func hybridFabrics(p, w int) []dist.ExecMode {
	if w == 2 {
		return gridFabrics(p)
	}
	return fabrics[:1]
}

func TestHybridRunBitForBitAcrossWorkersAndModes(t *testing.T) {
	l, n := kron(t, 8, 9)
	for _, policy := range []pagerank.DanglingPolicy{pagerank.DanglingIgnore, pagerank.DanglingUniform} {
		dangling := policy == pagerank.DanglingUniform
		opt := pagerank.Options{Seed: 4, Iterations: 6, Policy: policy}
		for _, p := range procCounts {
			base, err := runOp(dist.Config{}, l, n, p, opt) // serial ranks: the contract baseline
			if err != nil {
				t.Fatalf("p=%d baseline: %v", p, err)
			}
			for _, w := range workerCounts {
				for _, mode := range hybridFabrics(p, w) {
					res, err := runOp(dist.Config{Mode: mode, Workers: w}, l, n, p, opt)
					if err != nil {
						t.Fatalf("p=%d w=%d %v: %v", p, w, mode, err)
					}
					if res.Comm != base.Comm {
						t.Errorf("p=%d w=%d %v dangling=%v: comm %+v, baseline %+v",
							p, w, mode, dangling, res.Comm, base.Comm)
					}
					if res.NNZ != base.NNZ || res.Iterations != base.Iterations {
						t.Errorf("p=%d w=%d %v: NNZ/iters %d/%d, baseline %d/%d",
							p, w, mode, res.NNZ, res.Iterations, base.NNZ, base.Iterations)
					}
					for i := range base.Rank {
						if res.Rank[i] != base.Rank[i] {
							t.Fatalf("p=%d w=%d %v dangling=%v: rank[%d] = %v, baseline %v — workers changed bits",
								p, w, mode, dangling, i, res.Rank[i], base.Rank[i])
						}
					}
				}
			}
		}
	}
}

func TestHybridRunMatrixBitForBitAcrossWorkers(t *testing.T) {
	l, n := kron(t, 7, 6)
	b, err := buildOp(dist.Config{}, l, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	opt := pagerank.Options{Seed: 2, Policy: pagerank.DanglingUniform, Iterations: 5}
	for _, p := range procCounts {
		base, err := runMatrixOp(dist.Config{}, b.Matrix, p, opt)
		if err != nil {
			t.Fatalf("p=%d baseline: %v", p, err)
		}
		for _, w := range workerCounts {
			for _, mode := range hybridFabrics(p, w) {
				res, err := runMatrixOp(dist.Config{Mode: mode, Workers: w}, b.Matrix, p, opt)
				if err != nil {
					t.Fatalf("p=%d w=%d %v: %v", p, w, mode, err)
				}
				if res.Comm != base.Comm {
					t.Errorf("p=%d w=%d %v: comm %+v, baseline %+v", p, w, mode, res.Comm, base.Comm)
				}
				for i := range base.Rank {
					if res.Rank[i] != base.Rank[i] {
						t.Fatalf("p=%d w=%d %v: rank[%d] not bit-for-bit", p, w, mode, i)
					}
				}
			}
		}
	}
}

func TestHybridSortEqualsSerialAcrossWorkersAndModes(t *testing.T) {
	inputs := map[string]*edge.List{}
	inputs["kronecker"], _ = kron(t, 7, 5)
	few := edge.NewList(64)
	for i := 0; i < 64; i++ {
		few.Append(uint64(i%2), uint64(i))
	}
	inputs["two-distinct-u"] = few
	inputs["empty"] = edge.NewList(0)

	for name, l := range inputs {
		serial := l.Clone()
		xsort.RadixByU(serial)
		for _, p := range procCounts {
			base, err := sortOp(dist.Config{}, l, p)
			if err != nil {
				t.Fatalf("%s p=%d baseline: %v", name, p, err)
			}
			for _, w := range workerCounts {
				for _, mode := range hybridFabrics(p, w) {
					res, err := sortOp(dist.Config{Mode: mode, Workers: w}, l, p)
					if err != nil {
						t.Fatalf("%s p=%d w=%d %v: %v", name, p, w, mode, err)
					}
					if !res.Sorted.Equal(serial) {
						t.Errorf("%s p=%d w=%d %v: hybrid sort diverges from serial radix sort", name, p, w, mode)
					}
					if res.Comm != base.Comm {
						t.Errorf("%s p=%d w=%d %v: comm %+v, baseline %+v", name, p, w, mode, res.Comm, base.Comm)
					}
				}
			}
		}
	}
}

func TestHybridPredictedCommBytesUnchanged(t *testing.T) {
	// The closed form knows nothing of intra-rank workers, and must not
	// need to: measured channel bytes stay equal to it for every w.
	l, n := kron(t, 7, 3)
	for _, p := range procCounts {
		for _, w := range workerCounts {
			opt := pagerank.Options{Seed: 1, Iterations: 4, Policy: pagerank.DanglingUniform}
			res, err := runOp(dist.Config{Workers: w}, l, n, p, opt)
			if err != nil {
				t.Fatalf("p=%d w=%d: %v", p, w, err)
			}
			measured := res.Comm.AllReduceBytes + res.Comm.BroadcastBytes
			predicted := dist.PredictedCommBytes(n, p, res.Iterations, true)
			if measured != predicted {
				t.Errorf("p=%d w=%d: measured %d channel bytes, predicted %d", p, w, measured, predicted)
			}
		}
	}
}
