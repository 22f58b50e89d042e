package dist

// Execute is the distributed runtime's single entry point: every program
// the package runs — the kernel-2/3 pipeline, kernel 3 alone, kernel 2
// alone, and the two kernel-1 sorts — is one Op of one Spec, executed on
// either fabric under one context.  Execute validates the Spec once and
// takes the no-communication shortcuts; each op's dispatch then only
// chooses between the goroutine ranks (spawnRanks) and the socket
// coordinator (socket.go), which run the same rank program.

import (
	"context"
	"fmt"

	"repro/internal/edge"
	"repro/internal/pagerank"
	"repro/internal/sparse"
	"repro/internal/xsort"
)

// Op selects the distributed program a Spec executes.
type Op int

const (
	// OpRun is the kernel-2/kernel-3 pipeline: route and filter the
	// edges, then iterate PageRank (fills Outcome.Run).
	OpRun Op = iota
	// OpRunMatrix is the kernel-3 iteration on an already built,
	// filtered, normalized matrix (fills Outcome.Run).
	OpRunMatrix
	// OpBuildFiltered is the kernel 2 alone: build, filter and assemble
	// the global matrix (fills Outcome.Build).
	OpBuildFiltered
	// OpSort is the in-memory distributed sample sort, kernel 1 (fills
	// Outcome.Sort).
	OpSort
	// OpSortExternal is the out-of-core distributed sample sort, kernel 1
	// beyond RAM (fills Outcome.ExtSort).
	OpSortExternal
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpRun:
		return "run"
	case OpRunMatrix:
		return "run-matrix"
	case OpBuildFiltered:
		return "build-filtered"
	case OpSort:
		return "sort"
	case OpSortExternal:
		return "sort-external"
	default:
		return fmt.Sprintf("op?(%d)", int(o))
	}
}

// Spec is one distributed execution: the runtime configuration (the
// embedded Config's Mode and Workers), the program (Op), its processor
// count and inputs, and the per-program knobs.  The zero Config runs
// goroutine ranks with serial local compute.
type Spec struct {
	// Config is the runtime configuration: execution mode plus hybrid
	// intra-rank workers.  Results are bit-for-bit invariant in both.
	// Mode applies to every op; Workers parallelizes the kernel-3 block
	// product (OpRun, OpRunMatrix) and the kernel-1 bucket partitioning
	// (OpSort) — OpBuildFiltered and OpSortExternal have no intra-rank
	// worker stage and ignore it.
	Config
	// Op selects the program.
	Op Op
	// Procs is the processor (rank) count p.
	Procs int
	// N is the global vertex count (OpRun and OpBuildFiltered).
	N int
	// Edges is the input edge list (every op except OpRunMatrix).  It is
	// never modified; callers may share one list across concurrent
	// Executes.
	Edges *edge.List
	// Matrix is the built input matrix (OpRunMatrix).
	Matrix *sparse.CSR
	// PageRank carries the kernel-3 options (OpRun and OpRunMatrix).
	PageRank pagerank.Options
	// Ext carries the out-of-core sort's knobs (OpSortExternal).
	Ext ExtSortConfig
	// Checkpoint configures epoch checkpoint/restart of the kernel-3
	// iteration (OpRun and OpRunMatrix; see CheckpointSpec).  The zero
	// value disables it.
	Checkpoint CheckpointSpec
	// Fault, when non-nil, injects a rank failure into the kernel-3
	// iteration (OpRun and OpRunMatrix; see FaultPlan) — the chaos
	// suite's instrument.
	Fault *FaultPlan
	// Socket configures the socket execution mode (ExecSocket only; see
	// SocketSpec).  The zero value is a private unix-domain fabric with
	// self-spawned workers.
	Socket SocketSpec
}

// Outcome is the result of one Execute: exactly one field is non-nil,
// the one matching the Spec's Op.
type Outcome struct {
	// Run is OpRun's and OpRunMatrix's result.
	Run *Result
	// Build is OpBuildFiltered's result.
	Build *BuildResult
	// Sort is OpSort's result.
	Sort *SortResult
	// ExtSort is OpSortExternal's result.
	ExtSort *ExtSortResult
}

// specN resolves the global vertex count of a validated spec: the
// matrix dimension for OpRunMatrix, the explicit N otherwise.
func specN(spec Spec) int {
	if spec.Op == OpRunMatrix {
		return spec.Matrix.N
	}
	return spec.N
}

// Execute runs one distributed program under ctx.  Cancelling the
// context aborts the program at its next cancellation point — between
// kernel-3 iterations, between the sorts' and kernel 2's phases — with
// ctx's error, on either fabric.  The fabric's teardown plane guarantees
// the abort strands no rank: a cancelled (or failed) run unwinds every
// rank before Execute returns (DESIGN.md §8).  A background context adds
// no overhead and changes no result.
func Execute(ctx context.Context, spec Spec) (*Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	out := new(Outcome)
	var err error
	switch spec.Op {
	case OpRun, OpRunMatrix:
		out.Run, err = executeRun(ctx, spec)
	case OpBuildFiltered:
		if spec.Mode == ExecSocket {
			out.Build, err = buildFilteredSocket(ctx, spec)
		} else {
			out.Build, err = buildFilteredGoroutine(ctx, spec)
		}
	case OpSort:
		switch {
		case spec.Procs == 1 || spec.Edges.Len() == 0:
			// Nothing to communicate: the serial stable sort is the
			// distributed sort's exact result.
			sorted := spec.Edges.Clone()
			xsort.RadixByU(sorted)
			out.Sort = &SortResult{Sorted: sorted}
		case spec.Mode == ExecSocket:
			out.Sort, err = sortSocket(ctx, spec)
		default:
			out.Sort, err = sortGoroutine(ctx, spec)
		}
	default: // OpSortExternal; validate rejected every other op
		out.ExtSort, err = executeSortExternal(ctx, spec)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// validate checks the Spec's mode, op and inputs before any rank starts,
// so a bad input cannot strand ranks inside a collective.
func (spec Spec) validate() error {
	switch spec.Mode {
	case ExecGoroutine, ExecSocket:
	default:
		return fmt.Errorf("dist: unknown execution mode %v (valid modes: %s)", spec.Mode, validExecModes)
	}
	if spec.Op != OpRun && spec.Op != OpRunMatrix {
		if spec.Checkpoint.enabled() {
			return fmt.Errorf("dist: checkpointing applies to the kernel-3 ops, not %v", spec.Op)
		}
		if spec.Fault != nil {
			return fmt.Errorf("dist: fault injection applies to the kernel-3 ops, not %v", spec.Op)
		}
	}
	switch spec.Op {
	case OpRun, OpBuildFiltered:
		return validateRun(spec.Edges, spec.N, spec.Procs)
	case OpRunMatrix:
		if spec.Matrix == nil {
			return fmt.Errorf("dist: %v of nil matrix", spec.Op)
		}
	case OpSort, OpSortExternal:
		if spec.Edges == nil {
			return fmt.Errorf("dist: %v of nil edge list", spec.Op)
		}
	default:
		return fmt.Errorf("dist: unknown op %v", spec.Op)
	}
	if spec.Procs < 1 {
		return fmt.Errorf("dist: %v with p = %d, want >= 1", spec.Op, spec.Procs)
	}
	return nil
}

// executeRun dispatches the kernel-3 ops, wrapping the run in the
// checkpoint/fault runtime: the resume load happens first (and may cover
// the whole request), the stats are folded into the Result last.
func executeRun(ctx context.Context, spec Spec) (*Result, error) {
	ck, done, err := prepareCheckpoint(&spec, specN(spec))
	if err != nil {
		return nil, err
	}
	if done != nil {
		if spec.Op == OpRunMatrix {
			done.NNZ = spec.Matrix.NNZ()
		}
		return done, nil
	}
	var res *Result
	if spec.Mode == ExecSocket {
		res, err = runSocket(ctx, spec, ck)
	} else {
		res, err = runGoroutine(ctx, spec, ck)
	}
	if err != nil {
		return nil, err
	}
	ck.finish(res)
	return res, nil
}
