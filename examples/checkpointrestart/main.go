// Checkpointrestart: the paper's Figure 2 lists create / stop / checkpoint
// / restart among the administrative operations big-data systems must
// support, and its pipeline lets each kernel run on its own because
// kernels communicate only through files.  This example runs the full
// pipeline on disk with the distributed variant, checkpointing kernel 3
// every 7 iterations, and kills a rank after iteration 7 of 20.  It then
// "restarts the system": a fresh run of kernels 2 and 3 only rebuilds
// the matrix from the kernel-1 files already on disk, resumes kernel 3
// from the saved epoch, and proves the result is bit-identical to an
// uninterrupted run.
//
//	go run ./examples/checkpointrestart
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"

	"repro/internal/ckpt"
	"repro/internal/dist"
	"repro/internal/pagerank"
	"repro/internal/pipeline"
	"repro/internal/vfs"
)

func main() {
	dir, err := os.MkdirTemp("", "prpipeline-checkpoint-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	fsys, err := vfs.NewDir(dir)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	const every, killAt, total = 7, 7, 20
	base := pipeline.Config{Scale: 12, Seed: 4, Variant: "dist", FS: fsys, KeepRank: true,
		PageRank: pagerank.Options{Seed: 4, Iterations: total}}

	// Kernels 0-3 on disk; rank 1 dies after iteration 7, once epoch 7
	// is committed.
	killed := base
	killed.Checkpoint = dist.CheckpointSpec{FS: fsys, Every: every}
	killed.Fault = &dist.FaultPlan{KillRank: 1, AtIteration: killAt}
	if _, err := pipeline.ExecuteContext(ctx, killed); !errors.Is(err, dist.ErrFaultInjected) {
		log.Fatalf("killed run: err = %v, want an injected rank failure", err)
	}
	eps, err := ckpt.Epochs(fsys, "ckpt")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rank 1 killed after iteration %d of %d; committed epochs on disk: %v\n", killAt, total, eps)

	// "Restart": kernel 2 rebuilds the matrix from the k1 files, kernel 3
	// resumes from the newest complete epoch.
	restart := base
	restart.Checkpoint = dist.CheckpointSpec{FS: fsys, Every: every, Resume: true}
	resumed, err := pipeline.ExecuteKernelsContext(ctx, restart, []pipeline.Kernel{pipeline.K2Filter, pipeline.K3PageRank})
	if err != nil {
		log.Fatal(err)
	}
	if cs := resumed.Checkpoint; cs == nil || !cs.Resumed || cs.ResumedFrom != killAt {
		log.Fatalf("restart did not resume from epoch %d: %+v", killAt, cs)
	}
	fmt.Printf("restarted kernels 2-3: resumed from epoch %d, %d total iterations\n",
		resumed.Checkpoint.ResumedFrom, resumed.RankIterations)

	// Ground truth: an uninterrupted run in memory.
	full := base
	full.FS = nil
	want, err := pipeline.ExecuteContext(ctx, full)
	if err != nil {
		log.Fatal(err)
	}
	for i := range want.Rank {
		if want.Rank[i] != resumed.Rank[i] {
			log.Fatalf("resumed run diverged at vertex %d: %v vs %v", i, resumed.Rank[i], want.Rank[i])
		}
	}
	fmt.Printf("resumed result is bit-identical to the uninterrupted %d-iteration run (%d ranks).\n", total, len(want.Rank))
}
