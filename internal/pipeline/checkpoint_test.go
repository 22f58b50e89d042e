package pipeline

import (
	"context"
	"errors"
	"io"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/dist"
	"repro/internal/pagerank"
	"repro/internal/vfs"
	"repro/internal/xrand"
)

// The restart tests kill a checkpointed dist-variant pipeline in kernel
// 3, then restart kernels 2 and 3 only: kernel 2 rebuilds the matrix
// from the k1 files the killed run left on storage, kernel 3 resumes
// from the newest complete epoch, and the final ranks must equal the
// uninterrupted run's bit for bit.

// restartBase is the pipeline the restart tests kill and restart.
func restartBase(fs vfs.FS) Config {
	return Config{Scale: 7, EdgeFactor: 8, Seed: 9, Variant: "dist", FS: fs, KeepRank: true,
		PageRank: pagerank.Options{Seed: 9, Iterations: 10}}
}

// uninterruptedRank is restartBase's final rank vector, run in memory
// without checkpointing.
func uninterruptedRank(t *testing.T) []float64 {
	t.Helper()
	res, err := ExecuteContext(context.Background(), restartBase(nil))
	if err != nil {
		t.Fatal(err)
	}
	return res.Rank
}

// killRun runs restartBase on fs with an epoch every `every` iterations
// and kills rank 1 after iteration killAt.
func killRun(t *testing.T, fs vfs.FS, every, killAt int) {
	t.Helper()
	cfg := restartBase(fs)
	cfg.Checkpoint = dist.CheckpointSpec{FS: fs, Every: every}
	cfg.Fault = &dist.FaultPlan{KillRank: 1, AtIteration: killAt}
	if _, err := ExecuteContext(context.Background(), cfg); !errors.Is(err, dist.ErrFaultInjected) {
		t.Fatalf("killed run: err = %v, want ErrFaultInjected", err)
	}
}

// restartK2K3 runs kernels 2 and 3 only of cfg, resuming kernel 3 from
// the newest complete epoch on cfg.FS.
func restartK2K3(cfg Config, every int) (*Result, error) {
	cfg.Checkpoint = dist.CheckpointSpec{FS: cfg.FS, Every: every, Resume: true}
	return ExecuteKernelsContext(context.Background(), cfg, []Kernel{K2Filter, K3PageRank})
}

// checkRestart requires a restart that resumed from epoch `from`
// (0: a fresh start), skipped `torn` torn epochs and landed on want.
func checkRestart(t *testing.T, res *Result, from int64, torn int, want []float64) {
	t.Helper()
	cs := res.Checkpoint
	if cs == nil || cs.Resumed != (from > 0) || cs.ResumedFrom != from || cs.TornSkipped != torn {
		t.Fatalf("restart record %+v, want resume from %d skipping %d torn", cs, from, torn)
	}
	if res.RankIterations != 10 {
		t.Fatalf("restart reports %d iterations, want 10", res.RankIterations)
	}
	if len(res.Kernels) != 2 || res.Kernels[0].Kernel != K2Filter || res.Kernels[1].Kernel != K3PageRank {
		t.Fatalf("restart ran %v, want kernels 2 and 3 only", res.Kernels)
	}
	if len(res.Rank) != len(want) {
		t.Fatalf("restart rank length %d, want %d", len(res.Rank), len(want))
	}
	for i := range want {
		if math.Float64bits(res.Rank[i]) != math.Float64bits(want[i]) {
			t.Fatalf("restart diverges at component %d: %v vs %v", i, res.Rank[i], want[i])
		}
	}
}

// chunkBytes reads one epoch chunk file.
func chunkBytes(t *testing.T, fs vfs.FS, epoch int64, rank int) []byte {
	t.Helper()
	r, err := fs.Open(ckpt.ChunkName("ckpt", epoch, rank))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// putChunk overwrites one epoch chunk file with b.
func putChunk(t *testing.T, fs vfs.FS, epoch int64, rank int, b []byte) {
	t.Helper()
	w, err := fs.Create(ckpt.ChunkName("ckpt", epoch, rank))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRoundTrip pins what an epoch stores: the epoch a
// pipeline commits after 5 of 10 iterations is bit for bit the rank
// vector of an uninterrupted 5-iteration run, and the final epoch is the
// run's own result, under the run's damping.
func TestCheckpointRoundTrip(t *testing.T) {
	fs := vfs.NewMem()
	cfg := restartBase(fs)
	cfg.Checkpoint = dist.CheckpointSpec{FS: fs, Every: 5}
	res, err := ExecuteContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	half := restartBase(nil)
	half.PageRank.Iterations = 5
	halfRes, err := ExecuteContext(context.Background(), half)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []struct {
		epoch int64
		want  []float64
	}{{5, halfRes.Rank}, {10, res.Rank}} {
		epoch, want := e.epoch, e.want
		l, err := ckpt.Load(fs, "ckpt", epoch)
		if err != nil {
			t.Fatal(err)
		}
		if l.N != int64(len(want)) || l.Damping != pagerank.DefaultDamping {
			t.Fatalf("epoch %d: n %d damping %v", epoch, l.N, l.Damping)
		}
		for i := range want {
			if math.Float64bits(l.Rank[i]) != math.Float64bits(want[i]) {
				t.Fatalf("epoch %d diverges at component %d", epoch, i)
			}
		}
	}
}

// TestCheckpointResumeMatchesUninterrupted restarts from a directory on
// disk: after rank 1 dies at iteration 7 (epochs 3 and 6 committed),
// kernels 2 and 3 alone rebuild the matrix from the k1 files and resume
// from epoch 6, bit for bit onto the uninterrupted ranks.
func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	fs, err := vfs.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	killRun(t, fs, 3, 7)
	res, err := restartK2K3(restartBase(fs), 3)
	if err != nil {
		t.Fatal(err)
	}
	checkRestart(t, res, 6, 0, uninterruptedRank(t))
}

// TestCheckpointResumeFromRandomMidpoints is the property behind the
// restart: for any epoch length and kill point, the restarted kernels
// 2-3 resume from the last epoch at or before the kill (a fresh start
// when there is none) and land on the uninterrupted ranks.
func TestCheckpointResumeFromRandomMidpoints(t *testing.T) {
	want := uninterruptedRank(t)
	g := xrand.New(5)
	for trial := 0; trial < 5; trial++ {
		every, killAt := 1+g.Intn(4), 1+g.Intn(10)
		fs := vfs.NewMem()
		killRun(t, fs, every, killAt)
		res, err := restartK2K3(restartBase(fs), every)
		if err != nil {
			t.Fatalf("every %d, kill at %d: %v", every, killAt, err)
		}
		checkRestart(t, res, int64(killAt/every*every), 0, want)
	}
}

// TestCheckpointResumeAlreadyComplete restarts a run whose final epoch
// already covers every iteration: kernel 3 returns the stored vector
// and writes no epoch of its own.
func TestCheckpointResumeAlreadyComplete(t *testing.T) {
	fs := vfs.NewMem()
	cfg := restartBase(fs)
	cfg.Checkpoint = dist.CheckpointSpec{FS: fs, Every: 5}
	if _, err := ExecuteContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	res, err := restartK2K3(restartBase(fs), 5)
	if err != nil {
		t.Fatal(err)
	}
	checkRestart(t, res, 10, 0, uninterruptedRank(t))
	if res.Checkpoint.EpochsWritten != 0 {
		t.Fatalf("covered restart wrote %d epochs", res.Checkpoint.EpochsWritten)
	}
}

// TestCheckpointResumeDampingMismatch pins that an epoch is resumed only
// under the exact damping that produced it.
func TestCheckpointResumeDampingMismatch(t *testing.T) {
	fs := vfs.NewMem()
	killRun(t, fs, 3, 7)
	cfg := restartBase(fs)
	cfg.PageRank.Damping = 0.9
	if _, err := restartK2K3(cfg, 3); err == nil || !strings.Contains(err.Error(), "damping") {
		t.Fatalf("damping mismatch: err = %v", err)
	}
}

// TestCheckpointLoadDetectsCorruption flips a byte in the newest epoch:
// the restart skips it as torn and resumes from the epoch before.  With
// every epoch corrupted it starts fresh; it never loads a damaged one.
func TestCheckpointLoadDetectsCorruption(t *testing.T) {
	want := uninterruptedRank(t)
	fs := vfs.NewMem()
	killRun(t, fs, 3, 7)
	corrupt := func(epoch int64) *Result {
		b := chunkBytes(t, fs, epoch, 1)
		b[len(b)/2] ^= 0xFF
		putChunk(t, fs, epoch, 1, b)
		// Epoch length 100: the restart commits no epoch that would
		// replace the damaged one.
		res, err := restartK2K3(restartBase(fs), 100)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	checkRestart(t, corrupt(6), 3, 1, want)
	// Without a complete epoch the restart is a fresh start, which
	// reports no torn count.
	checkRestart(t, corrupt(3), 0, 0, want)
}

// TestCheckpointLoadRejectsTruncation cuts the newest epoch's chunk at
// every record region and inside each: the restart must treat the
// epoch as torn and resume from the previous one, never load a short
// or zero-filled vector.
func TestCheckpointLoadRejectsTruncation(t *testing.T) {
	want := uninterruptedRank(t)
	fs := vfs.NewMem()
	killRun(t, fs, 3, 7)
	full := chunkBytes(t, fs, 6, 0)
	const header = 72 // magic, version, kind, reserved, 6 int64s, damping, count
	cuts := map[string][]byte{
		"empty":            full[:0],
		"mid-magic":        full[:2],
		"mid-header":       full[:header-3],
		"header-only":      full[:header],
		"mid-rank-vector":  full[:header+(len(full)-header-4)/2],
		"missing-checksum": full[:len(full)-4],
		"mid-checksum":     full[:len(full)-2],
		"trailing-garbage": append(slices.Clone(full), 0),
	}
	for _, name := range slices.Sorted(maps.Keys(cuts)) {
		t.Run(name, func(t *testing.T) {
			putChunk(t, fs, 6, 0, cuts[name])
			defer putChunk(t, fs, 6, 0, full)
			res, err := restartK2K3(restartBase(fs), 100)
			if err != nil {
				t.Fatal(err)
			}
			checkRestart(t, res, 3, 1, want)
		})
	}
}

// TestCheckpointSaveAtomic pins the two-phase epoch write through the
// pipeline: a committed run leaves no temp files, and a run whose
// checkpoint storage fails inside its second epoch reports the storage
// error while the first epoch stays loadable for the restart.
func TestCheckpointSaveAtomic(t *testing.T) {
	probe := vfs.NewMem()
	cfg := restartBase(nil)
	cfg.PageRank.Iterations = 3
	cfg.Checkpoint = dist.CheckpointSpec{FS: probe, Every: 3}
	if _, err := ExecuteContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	names, err := probe.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			t.Fatalf("temp file %q survived a committed epoch", name)
		}
	}

	data, ckfs := vfs.NewMem(), vfs.NewMem()
	cfg = restartBase(data)
	cfg.Checkpoint = dist.CheckpointSpec{FS: vfs.NewFaulty(ckfs, probe.TotalBytes()+64).PartialWrites(), Every: 3}
	if _, err := ExecuteContext(context.Background(), cfg); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("checkpoint storage failure: err = %v, want vfs.ErrInjected", err)
	}
	cfg = restartBase(data)
	cfg.Checkpoint = dist.CheckpointSpec{FS: ckfs, Every: 3, Resume: true}
	res, err := ExecuteKernelsContext(context.Background(), cfg, []Kernel{K2Filter, K3PageRank})
	if err != nil {
		t.Fatal(err)
	}
	checkRestart(t, res, 3, 0, uninterruptedRank(t))
}

// TestPipelineCheckpointKillAndResume drives the full pipeline with the
// distributed variant, kills a rank mid-kernel-3, and reruns
// with Resume: the second run restarts from the last committed epoch,
// emits checkpoint events on the Progress stream, and lands bit-for-bit
// on the uninterrupted pipeline's rank vector.
func TestPipelineCheckpointKillAndResume(t *testing.T) {
	base := Config{Scale: 7, EdgeFactor: 8, Seed: 3, Variant: "dist", KeepRank: true,
		PageRank: pagerank.Options{Seed: 3, Iterations: 10}}
	uninterrupted, err := ExecuteContext(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}

	ckfs := vfs.NewMem()
	kill := base
	kill.Checkpoint = dist.CheckpointSpec{FS: ckfs, Every: 3, Resume: true}
	kill.Fault = &dist.FaultPlan{KillRank: 2, AtIteration: 8}
	var killSaves []int
	kill.Progress = func(ev Event) {
		if ev.Kind == EventCheckpointSaved {
			killSaves = append(killSaves, ev.Iteration)
		}
	}
	if _, err := ExecuteContext(context.Background(), kill); !errors.Is(err, dist.ErrFaultInjected) {
		t.Fatalf("killed run: err = %v, want ErrFaultInjected", err)
	}
	if len(killSaves) != 2 || killSaves[0] != 3 || killSaves[1] != 6 {
		t.Fatalf("killed run committed epochs %v, want [3 6]", killSaves)
	}

	resume := base
	resume.Checkpoint = dist.CheckpointSpec{FS: ckfs, Every: 3, Resume: true}
	var restoredFrom, iterEvents []int
	resume.Progress = func(ev Event) {
		switch ev.Kind {
		case EventCheckpointRestored:
			restoredFrom = append(restoredFrom, ev.Iteration)
		case EventIteration:
			iterEvents = append(iterEvents, ev.Iteration)
		}
	}
	res, err := ExecuteContext(context.Background(), resume)
	if err != nil {
		t.Fatal(err)
	}
	if len(restoredFrom) != 1 || restoredFrom[0] != 6 {
		t.Fatalf("restore events %v, want [6]", restoredFrom)
	}
	// The resumed segment's iteration events carry global counts.
	if len(iterEvents) != 4 || iterEvents[0] != 7 || iterEvents[3] != 10 {
		t.Fatalf("resumed iteration events %v, want [7 8 9 10]", iterEvents)
	}
	if res.Checkpoint == nil || !res.Checkpoint.Resumed || res.Checkpoint.ResumedFrom != 6 {
		t.Fatalf("result checkpoint record %+v", res.Checkpoint)
	}
	if res.RankIterations != 10 {
		t.Fatalf("resumed pipeline reports %d iterations", res.RankIterations)
	}
	for i := range uninterrupted.Rank {
		if uninterrupted.Rank[i] != res.Rank[i] {
			t.Fatalf("resumed pipeline diverges at component %d", i)
		}
	}
}

// TestPipelineCheckpointRejectsSerialVariant pins validation: the
// checkpoint/fault knobs belong to the variants with a distributed
// kernel 3.
func TestPipelineCheckpointRejectsSerialVariant(t *testing.T) {
	cfg := Config{Scale: 6, Variant: "csr", Checkpoint: dist.CheckpointSpec{FS: vfs.NewMem()}}
	if err := cfg.Validate(); err == nil {
		t.Fatal("serial variant accepted a checkpoint spec")
	}
	cfg = Config{Scale: 6, Variant: "csr", Fault: &dist.FaultPlan{AtIteration: 1}}
	if err := cfg.Validate(); err == nil {
		t.Fatal("serial variant accepted a fault plan")
	}
	for _, v := range []string{"dist", "distext"} {
		cfg = Config{Scale: 6, Variant: v, Checkpoint: dist.CheckpointSpec{FS: vfs.NewMem()}}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("variant %s rejected a checkpoint spec: %v", v, err)
		}
	}
}
