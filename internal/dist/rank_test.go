package dist_test

// Property tests for the goroutine-rank runtime.  The …EqualsSim tests
// pin, for every processor count, everything a single-threaded walk of
// the schedule would produce — rank vectors, sorted output, assembled
// matrix and communication record — against the serial oracles
// (xsort.RadixByU, the serial kernel 2, the pagerank engines) and the
// closed-form byte model.  Further tests pin that the channel bytes equal
// the model, repeated concurrent runs are identical despite scheduling
// noise, bad inputs fail before any rank can strand another, and unknown
// modes are named in the error.  Run under -race in CI.

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/edge"
	"repro/internal/pagerank"
	"repro/internal/xsort"
)

func TestGoroutineSortEqualsSimBitForBit(t *testing.T) {
	inputs := map[string]*edge.List{}
	inputs["kronecker"], _ = kron(t, 7, 5)

	few := edge.NewList(64)
	for i := 0; i < 64; i++ {
		few.Append(uint64(i%2), uint64(i))
	}
	inputs["two-distinct-u"] = few
	inputs["empty"] = edge.NewList(0)

	for name, l := range inputs {
		want := l.Clone()
		xsort.RadixByU(want)
		for _, p := range procCounts {
			res, err := sortOp(dist.Config{}, l, p)
			if err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
			if !res.Sorted.Equal(want) {
				t.Errorf("%s p=%d: goroutine sort differs from the serial radix sort", name, p)
			}
			if (p == 1 || l.Len() == 0) && res.Comm != (dist.CommStats{}) {
				t.Errorf("%s p=%d: nonzero comm %+v", name, p, res.Comm)
				continue
			}
			if p == 1 || l.Len() == 0 {
				continue
			}
			// Besides its all-to-all, the sample sort makes one broadcast
			// of at most p-1 splitters to the p-1 other ranks, and no
			// all-reduce.
			fanout := 8 * uint64(p-1)
			if res.Comm.AllReduceCalls != 0 || res.Comm.AllReduceBytes != 0 || res.Comm.BroadcastCalls != 1 ||
				res.Comm.BroadcastBytes%fanout != 0 || res.Comm.BroadcastBytes > fanout*uint64(p-1) {
				t.Errorf("%s p=%d: collective traffic %+v is not one splitter broadcast", name, p, res.Comm)
			}
		}
	}
}

func TestGoroutineRunEqualsSimBitForBit(t *testing.T) {
	l, n := kron(t, 8, 9)
	a, _ := serialKernel2(t, l, n)
	for _, p := range procCounts {
		for _, policy := range []pagerank.DanglingPolicy{pagerank.DanglingIgnore, pagerank.DanglingUniform} {
			dangling := policy == pagerank.DanglingUniform
			opt := pagerank.Options{Seed: 4, Iterations: 7, Policy: policy}
			want, err := pagerank.Scatter(a, opt)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runOp(dist.Config{}, l, n, p, opt)
			if err != nil {
				t.Fatalf("p=%d: %v", p, err)
			}
			if res.NNZ != a.NNZ() || res.Iterations != want.Iterations {
				t.Errorf("p=%d dangling=%v: NNZ/iters %d/%d, serial %d/%d",
					p, dangling, res.NNZ, res.Iterations, a.NNZ(), want.Iterations)
			}
			for i := range want.Rank {
				if math.Abs(res.Rank[i]-want.Rank[i]) > 1e-9 {
					t.Fatalf("p=%d dangling=%v: rank[%d] = %v, serial %v",
						p, dangling, i, res.Rank[i], want.Rank[i])
				}
			}
			// Kernel 3 over the serially built matrix runs the same
			// partition and reduction order: bit for bit.
			k3, err := runMatrixOp(dist.Config{}, a, p, opt)
			if err != nil {
				t.Fatalf("p=%d: %v", p, err)
			}
			for i := range k3.Rank {
				if res.Rank[i] != k3.Rank[i] {
					t.Fatalf("p=%d dangling=%v: rank[%d] = %v, kernel 3 alone %v — not bit-for-bit",
						p, dangling, i, res.Rank[i], k3.Rank[i])
				}
			}
			measured := res.Comm.AllReduceBytes + res.Comm.BroadcastBytes
			if predicted := dist.PredictedCommBytes(n, p, res.Iterations, dangling); measured != predicted {
				t.Errorf("p=%d dangling=%v: measured %d bytes, predicted %d", p, dangling, measured, predicted)
			}
			if len(res.RankSeconds) != p {
				t.Errorf("p=%d: RankSeconds has %d entries", p, len(res.RankSeconds))
			}
		}
	}
}

func TestGoroutineCommEqualsPredictionExactly(t *testing.T) {
	l, n := kron(t, 7, 3)
	for _, p := range procCounts {
		for _, policy := range []pagerank.DanglingPolicy{pagerank.DanglingIgnore, pagerank.DanglingUniform} {
			dangling := policy == pagerank.DanglingUniform
			opt := pagerank.Options{Seed: 1, Iterations: 5, Policy: policy}
			res, err := runOp(dist.Config{}, l, n, p, opt)
			if err != nil {
				t.Fatalf("p=%d: %v", p, err)
			}
			measured := res.Comm.AllReduceBytes + res.Comm.BroadcastBytes
			predicted := dist.PredictedCommBytes(n, p, res.Iterations, dangling)
			if measured != predicted {
				t.Errorf("p=%d dangling=%v: measured %d channel bytes, predicted %d",
					p, dangling, measured, predicted)
			}
		}
	}
}

func TestGoroutineRunDeterminism(t *testing.T) {
	// Repeated concurrent runs must produce identical rank vectors and
	// byte counts: the collectives pin the reduction order, so scheduling
	// noise must not be observable.
	l, n := kron(t, 7, 11)
	const p = 5
	opt := pagerank.Options{Seed: 3, Iterations: 6, Policy: pagerank.DanglingUniform}
	first, err := runOp(dist.Config{}, l, n, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 4; run++ {
		res, err := runOp(dist.Config{}, l, n, p, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Comm != first.Comm {
			t.Fatalf("run %d: comm %+v, first %+v", run, res.Comm, first.Comm)
		}
		for i := range first.Rank {
			if res.Rank[i] != first.Rank[i] {
				t.Fatalf("run %d: rank[%d] differs between repeats", run, i)
			}
		}
	}
}

func TestGoroutineBuildFilteredEqualsSim(t *testing.T) {
	l, n := kron(t, 7, 2)
	ref, mass := serialKernel2(t, l, n)
	for _, p := range procCounts {
		b, err := buildOp(dist.Config{}, l, n, p)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if b.Mass != mass || b.NNZ != ref.NNZ() {
			t.Errorf("p=%d: mass/NNZ %v/%d, serial %v/%d", p, b.Mass, b.NNZ, mass, ref.NNZ())
		}
		if b.Comm.AllReduceBytes != kernel2CollectiveBytes(n, p) || b.Comm.BroadcastBytes != 0 {
			t.Errorf("p=%d: comm %+v, closed form %d all-reduce bytes", p, b.Comm, kernel2CollectiveBytes(n, p))
		}
		if err := b.Matrix.Validate(); err != nil {
			t.Fatalf("p=%d: assembled matrix invalid: %v", p, err)
		}
		for i := range ref.RowPtr {
			if b.Matrix.RowPtr[i] != ref.RowPtr[i] {
				t.Fatalf("p=%d: assembled RowPtr differs at %d", p, i)
			}
		}
		for k := range ref.Val {
			if b.Matrix.Col[k] != ref.Col[k] || b.Matrix.Val[k] != ref.Val[k] {
				t.Fatalf("p=%d: assembled matrix entry %d differs", p, k)
			}
		}
	}
}

func TestGoroutineRunMatrixEqualsSim(t *testing.T) {
	l, n := kron(t, 7, 6)
	b, err := buildOp(dist.Config{}, l, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	opt := pagerank.Options{Seed: 2, Policy: pagerank.DanglingUniform, Iterations: 5}
	want, err := pagerank.Scatter(b.Matrix, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range procCounts {
		res, err := runMatrixOp(dist.Config{}, b.Matrix, p, opt)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for i := range want.Rank {
			if math.Abs(res.Rank[i]-want.Rank[i]) > 1e-9 {
				t.Fatalf("p=%d: rank[%d] = %v, serial %v", p, i, res.Rank[i], want.Rank[i])
			}
		}
		if res.NNZ != b.Matrix.NNZ() {
			t.Errorf("p=%d: NNZ %d, want %d", p, res.NNZ, b.Matrix.NNZ())
		}
		// Kernel 3 alone: the closed form without its kernel-2 share.
		measured := res.Comm.AllReduceBytes + res.Comm.BroadcastBytes
		if predicted := dist.PredictedCommBytes(n, p, res.Iterations, true) - kernel2CollectiveBytes(n, p); measured != predicted {
			t.Errorf("p=%d: measured %d bytes, predicted %d", p, measured, predicted)
		}
		if res.Comm.AllToAllBytes != 0 {
			t.Errorf("p=%d: kernel 3 routed %d all-to-all bytes", p, res.Comm.AllToAllBytes)
		}
	}
}

func TestGoroutineRejectsBadInput(t *testing.T) {
	l, n := kron(t, 5, 1)
	if _, err := runOp(dist.Config{}, l, n, 0, pagerank.Options{}); err == nil {
		t.Error("p = 0 accepted")
	}
	if _, err := runOp(dist.Config{}, nil, n, 2, pagerank.Options{}); err == nil {
		t.Error("nil list accepted")
	}
	if _, err := runOp(dist.Config{}, l, 2, 2, pagerank.Options{}); err == nil {
		t.Error("out-of-range vertices accepted")
	}
	// Invalid options must fail on every rank consistently (no deadlock).
	if _, err := runOp(dist.Config{}, l, n, 3, pagerank.Options{Damping: 2}); err == nil {
		t.Error("invalid damping accepted")
	}
	if _, err := runOp(dist.Config{}, l, n, 3, pagerank.Options{Teleport: []float64{1}}); err == nil {
		t.Error("short teleport vector accepted")
	}
	if _, err := sortOp(dist.Config{}, nil, 2); err == nil {
		t.Error("sort of nil list accepted")
	}
	if _, err := runMatrixOp(dist.Config{}, nil, 2, pagerank.Options{}); err == nil {
		t.Error("nil matrix accepted")
	}
	if _, err := runOp(dist.Config{Mode: dist.ExecMode(99)}, l, n, 2, pagerank.Options{}); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestGoroutineCheckpointRestartPath(t *testing.T) {
	// InitialRank is the checkpoint-restart seed; the broadcast must ship
	// it from rank 0 and the result must match the serial engine started
	// from the same vector.
	l, n := kron(t, 6, 4)
	a, _ := serialKernel2(t, l, n)
	init := pagerank.InitVector(n, 77)
	opt := pagerank.Options{Seed: 1, Iterations: 3, InitialRank: init}
	want, err := pagerank.Scatter(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := pagerank.Scatter(a, pagerank.Options{Seed: 1, Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runOp(dist.Config{}, l, n, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	moved := false
	for i := range want.Rank {
		if math.Abs(res.Rank[i]-want.Rank[i]) > 1e-9 {
			t.Fatalf("rank[%d] = %v, serial restart %v", i, res.Rank[i], want.Rank[i])
		}
		moved = moved || math.Abs(res.Rank[i]-fresh.Rank[i]) > 1e-9
	}
	if !moved {
		t.Fatal("InitialRank ignored: restart result equals the fresh start")
	}
}

func TestParseExecMode(t *testing.T) {
	for s, want := range map[string]dist.ExecMode{
		"": dist.ExecGoroutine, "goroutine": dist.ExecGoroutine, "go": dist.ExecGoroutine,
		"socket": dist.ExecSocket, "sock": dist.ExecSocket,
	} {
		got, err := dist.ParseExecMode(s)
		if err != nil || got != want {
			t.Errorf("ParseExecMode(%q) = %v, %v", s, got, err)
		}
	}
	if dist.ExecGoroutine.String() != "goroutine" || dist.ExecSocket.String() != "socket" {
		t.Error("mode strings changed")
	}
	if _, err := dist.ParseExecMode("sim"); err == nil {
		t.Error(`ParseExecMode("sim") accepted a retired mode`)
	}
}

func TestUnknownExecModeErrors(t *testing.T) {
	// An unknown mode — misspelled on the command line or an out-of-range
	// enum value reaching Execute — must fail with an error that names the
	// offending value and lists every valid mode, so the user can fix the
	// spelling without reading source.
	l, n := kron(t, 5, 1)
	cases := []struct {
		name string
		run  func() error
		want []string // substrings the error must contain
	}{
		{
			name: "parse misspelled string",
			run: func() error {
				_, err := dist.ParseExecMode("mpi")
				return err
			},
			want: []string{`"mpi"`, "goroutine, socket"},
		},
		{
			name: "parse socket typo",
			run: func() error {
				_, err := dist.ParseExecMode("sockets")
				return err
			},
			want: []string{`"sockets"`, "goroutine, socket"},
		},
		{
			name: "run with out-of-range enum",
			run: func() error {
				_, err := runOp(dist.Config{Mode: dist.ExecMode(42)}, l, n, 2, pagerank.Options{})
				return err
			},
			want: []string{"42", "goroutine, socket"},
		},
		{
			name: "sort with out-of-range enum",
			run: func() error {
				_, err := sortOp(dist.Config{Mode: dist.ExecMode(7)}, l, 2)
				return err
			},
			want: []string{"7", "goroutine, socket"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if err == nil {
				t.Fatal("unknown execution mode accepted")
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not mention %q", err, w)
				}
			}
		})
	}
}
