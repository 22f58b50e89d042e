package main

import (
	"context"
	"fmt"

	"repro/internal/dist"
	"repro/internal/edge"
	"repro/internal/fastio"
	"repro/internal/kronecker"
	"repro/internal/pagerank"
	"repro/internal/pipeline"
	"repro/internal/sparse"
	"repro/internal/vfs"
	"repro/internal/xsort"
)

// replayOut is what one module replay measured beyond its spans.
type replayOut struct {
	encodedBytes int64
	nnz          int
	bytesPerIter float64 // computed, not measured
	comm         dist.CommStats
	wire         dist.WireStats
	rankSkew     float64
	engineRank   []float64 // the gather engine's ranks (the csr variant's K3)
	distRank     []float64 // OpRunMatrix's ranks (the socket dist variant's K3)
}

// replay recomputes one request's kernels by calling each module's
// public functions directly, one span per call, under root span id
// parent.  It runs both kernel sequences a Service request can take:
// the csr variant's (kronecker, fastio, xsort, sparse, pagerank) and the
// socket dist variant's (dist.Execute per op, p = 2), on the same edges,
// and checks each dist op against its serial counterpart bit for bit and
// against the fabric identities, reporting each check's outcome to check.
// tamper, when non-nil, corrupts the edges read back for kernel 1 (the
// gate's own tests use it).
func replay(ctx context.Context, rec *recorder, parent, req int, cfg pipeline.Config, check func(error), tamper func(*edge.List)) (*replayOut, error) {
	out := &replayOut{}
	expect := func(ok bool, format string, args ...any) {
		var err error
		if !ok {
			err = fmt.Errorf(format, args...)
		}
		check(err)
	}
	n := 1 << cfg.Scale
	codec, err := fastio.CodecByName(pipeline.FormatName(cfg))
	if err != nil {
		return nil, err
	}
	fs := vfs.NewMem()
	sock := dist.Config{Mode: dist.ExecSocket, Workers: cfg.RankWorkers}
	step := func(name string, fn func() error) error {
		if err := rec.timed(name, parent, req, fn); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	// do times a call that cannot fail.
	do := func(name string, fn func()) {
		rec.timed(name, parent, req, func() error { fn(); return nil })
	}
	execute := func(name string, spec dist.Spec) (*dist.Outcome, error) {
		var o *dist.Outcome
		err := step(name, func() (err error) {
			o, err = dist.Execute(ctx, spec)
			return err
		})
		return o, err
	}

	// Kernel 0: generate and write the edge file.
	var gen *edge.List
	if err := step("kronecker.generate", func() (err error) {
		gen, err = kronecker.Generate(kronecker.New(cfg.Scale, cfg.Seed))
		return err
	}); err != nil {
		return nil, err
	}
	if err := step("fastio.write", func() error { return fastio.WriteStriped(fs, "k0", codec, 1, gen) }); err != nil {
		return nil, err
	}

	// Kernel 1: read, sort two ways, write.
	var l *edge.List
	if err := step("fastio.read", func() (err error) {
		l, err = fastio.ReadStriped(fs, "k0", codec)
		return err
	}); err != nil {
		return nil, err
	}
	if tamper != nil {
		tamper(l)
	}
	srt, err := execute("dist.sort", dist.Spec{Config: sock, Op: dist.OpSort, Edges: l, Procs: ranks})
	if err != nil {
		return nil, err
	}
	do("xsort.radix", func() { xsort.RadixByU(l) })
	check(sameEdges(srt.Sort.Sorted, l))
	check(checkWire("sort", srt.Sort.Wire, srt.Sort.Comm))
	if err := step("fastio.write", func() error { return fastio.WriteStriped(fs, "k1", codec, 1, l) }); err != nil {
		return nil, err
	}
	for _, prefix := range []string{"k0", "k1"} {
		b, err := fastio.StripedBytes(fs, prefix, codec)
		if err != nil {
			return nil, err
		}
		out.encodedBytes += b
	}

	// Kernel 2: read, build, filter, normalize — then the dist build.
	if err := step("fastio.read", func() (err error) {
		l, err = fastio.ReadStriped(fs, "k1", codec)
		return err
	}); err != nil {
		return nil, err
	}
	var a *sparse.CSR
	var mass float64
	if err := step("sparse.build", func() (err error) {
		a, err = sparse.FromSortedEdges(l, n)
		if err == nil {
			mass = a.SumValues()
		}
		return err
	}); err != nil {
		return nil, err
	}
	do("sparse.filter", func() {
		mask, _, _, _ := sparse.Kernel2Mask(a.InDegrees())
		a.ZeroColumns(mask)
		a.Compact()
	})
	do("sparse.normalize", func() { a.ScaleRows(a.OutDegrees()) })
	out.nnz = a.NNZ()
	build, err := execute("dist.build", dist.Spec{Config: dist.Config{Mode: dist.ExecSocket}, Op: dist.OpBuildFiltered, Edges: l, N: n, Procs: ranks})
	if err != nil {
		return nil, err
	}
	check(sameMatrix(build.Build.Matrix, a))
	expect(build.Build.Mass == mass, "dist build mass %v, serial %v", build.Build.Mass, mass)
	check(checkWire("build", build.Build.Wire, build.Build.Comm))

	// Kernel 3: the gather engine step by step, then the dist run.
	opts := cfg.PageRank
	var eng *pagerank.Engine
	if err := step("pagerank.engine", func() (err error) {
		eng, err = pagerank.NewGatherEngine(a, opts)
		return err
	}); err != nil {
		return nil, err
	}
	for i := 0; i < iterations; i++ {
		do("pagerank.iterate", func() { eng.Iterate() })
	}
	out.engineRank = append([]float64(nil), eng.Rank()...)
	// Gather MxV over the transpose plus the engine's vector passes, per
	// iteration: Col (4 B) + Val (8 B) + one rank read (8 B) per entry;
	// RowPtr (8 B), the product write (8 B), the update's read and write
	// (16 B) and the sum(r) pass (8 B) per row.
	out.bytesPerIter = 20*float64(out.nnz) + 40*float64(n)
	run, err := execute("dist.pagerank", dist.Spec{Config: sock, Op: dist.OpRunMatrix, Matrix: a, Procs: ranks, PageRank: opts})
	if err != nil {
		return nil, err
	}
	out.distRank = run.Run.Rank
	check(checkWire("pagerank", run.Run.Wire, run.Run.Comm))
	collectives := build.Build.Comm.AllReduceBytes + build.Build.Comm.BroadcastBytes +
		run.Run.Comm.AllReduceBytes + run.Run.Comm.BroadcastBytes
	want := dist.PredictedCommBytes(n, ranks, iterations, false)
	expect(collectives == want, "build+pagerank all-reduce+broadcast bytes %d, PredictedCommBytes %d", collectives, want)
	if rs := run.Run.RankSeconds; len(rs) > 0 {
		lo, hi := rs[0], rs[0]
		for _, s := range rs {
			lo, hi = min(lo, s), max(hi, s)
		}
		out.rankSkew = hi - lo
	}
	for _, w := range []*dist.WireStats{srt.Sort.Wire, build.Build.Wire, run.Run.Wire} {
		if w != nil {
			out.wire.Add(*w)
		}
	}
	out.comm.Add(srt.Sort.Comm)
	out.comm.Add(build.Build.Comm)
	out.comm.Add(run.Run.Comm)

	// The fabric's fixed cost: spawn, handshake and teardown around a
	// 64-edge sort, several times for a median.
	tiny := edge.Make(0)
	for i := 0; i < min(64, gen.Len()); i++ {
		tiny.Append(gen.At(i))
	}
	for i := 0; i < fixedProbes; i++ {
		if _, err := execute("dist.fixed", dist.Spec{Config: sock, Op: dist.OpSort, Edges: tiny, Procs: ranks}); err != nil {
			return nil, err
		}
	}
	return out, nil
}
