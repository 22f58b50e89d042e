package main

import (
	"context"
	"fmt"

	"repro/internal/perfmodel"
	"repro/internal/pipeline"
)

// layerMetrics derives the traced run's per-layer metrics: the serve and
// pipeline layers from the request spans, every module from a replay of
// one request's graph: the first timed response that passed the gate,
// or for warm-k3 its first key, whose ranks its setup fill recorded.
func (r *runner) layerMetrics(ctx context.Context, put func(name, unit string, v float64)) error {
	firstTimed := r.opt.setupReps
	if r.w.keys > 0 {
		firstTimed = r.w.keys
	}
	timed := func(s span) bool { return s.Req >= firstTimed }
	setup := func(s span) bool { return s.Req >= 0 && s.Req < firstTimed }

	put("serve.wait_s", "s", median(r.rec.durations("serve.wait", timed)))
	put("serve.self_s", "s", median(r.rec.selfTimes("serve.run", timed)))

	// Per kernel: the timed requests that ran it, else the setup fills.
	model := perfmodel.Workload{Scale: r.opt.scale, EdgeFactor: edgeFactor, Iterations: iterations,
		Format: pipeline.FormatName(r.w.cfg(r.opt.scale, 0))}
	predicted := perfmodel.All(perfmodel.PaperNode(), model)
	for k, stem := range []string{"k0", "k1", "k2", "k3"} {
		kernel := pipeline.Kernel(k)
		secs := r.rec.durations(kernelSpan[kernel], timed)
		if len(secs) == 0 {
			secs = r.rec.durations(kernelSpan[kernel], setup)
		}
		var allocs, setupAllocs []float64
		for _, s := range r.samples {
			for _, kr := range s.kernels {
				switch {
				case kr.Kernel != kernel:
				case s.setup:
					setupAllocs = append(setupAllocs, float64(kr.Allocs))
				default:
					allocs = append(allocs, float64(kr.Allocs))
				}
			}
		}
		if len(allocs) == 0 {
			allocs = setupAllocs
		}
		put("pipeline."+stem+"_s", "s", median(secs))
		put("pipeline."+stem+"_allocs", "count", median(allocs))
		put("perfmodel."+stem+"_ratio", "ratio", median(secs)/predicted[k].Seconds)
	}

	cfg := r.w.cfg(r.opt.scale, graphSeed(r.opt.seed, 0))
	var wantRank []float64
	switch {
	case r.w.keys > 0:
		wantRank = r.keys[0]
	case r.ref != nil:
		cfg.Seed, wantRank = r.ref.Config.Seed, r.ref.Rank
	default:
		return fmt.Errorf("no timed response passed the gate, so none can be replayed")
	}
	// The replay's spans belong to request -1.
	root := r.rec.begin("replay", 0, -1)
	out, err := replay(ctx, r.rec, root, -1, cfg, r.check, r.opt.tamperEdges)
	r.rec.finish(root)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	// The replay times the request's own computation: its ranks must be
	// the Service's bit for bit, through the path the workload's variant
	// takes.
	got := out.engineRank
	if cfg.Variant == "dist" {
		got = out.distRank
	}
	r.check(sameBits("replay rank", got, wantRank))

	iter := median(r.rec.durations("pagerank.iterate", nil))
	put("kronecker.generate_s", "s", r.rec.sum("kronecker.generate"))
	put("fastio.write_s", "s", r.rec.sum("fastio.write"))
	put("fastio.read_s", "s", r.rec.sum("fastio.read"))
	put("fastio.encoded_bytes", "B", float64(out.encodedBytes))
	put("xsort.radix_s", "s", r.rec.sum("xsort.radix"))
	put("sparse.build_s", "s", r.rec.sum("sparse.build"))
	put("sparse.filter_s", "s", r.rec.sum("sparse.filter"))
	put("sparse.normalize_s", "s", r.rec.sum("sparse.normalize"))
	put("sparse.nnz", "count", float64(out.nnz))
	put("pagerank.iter_s", "s", iter)
	put("pagerank.bytes_per_iter", "B", out.bytesPerIter)
	put("pagerank.gbytes_per_s", "GB/s", out.bytesPerIter/iter/1e9)
	put("dist.sort_s", "s", r.rec.sum("dist.sort"))
	put("dist.build_s", "s", r.rec.sum("dist.build"))
	put("dist.pagerank_s", "s", r.rec.sum("dist.pagerank"))
	put("dist.fixed_s", "s", median(r.rec.durations("dist.fixed", nil)))
	put("dist.comm_bytes", "B", float64(commTotal(out.comm)))
	put("dist.alltoall_bytes", "B", float64(out.comm.AllToAllBytes))
	put("dist.allreduce_calls", "count", float64(out.comm.AllReduceCalls))
	put("dist.wire_overhead_ratio", "ratio", float64(out.wire.ControlBytes+out.wire.OverheadBytes)/float64(out.wire.DataBytes))
	put("dist.rank_skew_s", "s", out.rankSkew)
	return nil
}
