package core

import (
	"context"
	"testing"

	"repro/internal/pagerank"
)

func TestRunFacade(t *testing.T) {
	res, err := RunOnce(context.Background(), Config{Scale: 7, EdgeFactor: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Kernels) != 4 {
		t.Fatalf("kernels = %d", len(res.Kernels))
	}
	if res.KernelResultFor(K3PageRank) == nil {
		t.Error("no K3 record")
	}
}

func TestRunKernelsFacade(t *testing.T) {
	fs := NewMemFS()
	cfg := Config{Scale: 6, Seed: 2, FS: fs}
	if _, err := RunOnce(context.Background(), cfg, K0Generate, K1Sort); err != nil {
		t.Fatal(err)
	}
	names, _ := fs.List()
	if len(names) != 2 { // one k0 stripe, one k1 stripe
		t.Errorf("files after K0+K1: %v", names)
	}
}

func TestVariantsNonEmpty(t *testing.T) {
	vs := Variants()
	if len(vs) < 6 {
		t.Errorf("variants = %v", vs)
	}
}

func TestSizeTableFacade(t *testing.T) {
	rows := SizeTable(PaperScales, 0, 0)
	if len(rows) != 7 || rows[0].Scale != 16 {
		t.Errorf("size table = %+v", rows)
	}
}

func TestDistributedRunFacade(t *testing.T) {
	res, err := RunOnce(context.Background(), Config{
		Scale: 7, Seed: 3, Variant: "dist", Workers: 2, KeepRank: true,
		PageRank: PageRankOptions{Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rank) != 1<<7 || res.Comm == nil || res.Comm.AllReduceCalls == 0 {
		t.Error("distributed facade incomplete result")
	}
}

func TestPredictKernelsFacade(t *testing.T) {
	preds := PredictKernels(20)
	for i, p := range preds {
		if p.EdgesPerSecond <= 0 {
			t.Errorf("kernel %d prediction %v", i, p)
		}
	}
}

func TestNewDirFSFacade(t *testing.T) {
	d, err := NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Scale: 5, FS: d}
	if _, err := RunOnce(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDistributedRunModeFacade(t *testing.T) {
	run := func(mode string) *Result {
		t.Helper()
		res, err := RunOnce(context.Background(), Config{
			Scale: 7, Seed: 3, Variant: "dist", Workers: 3, DistMode: mode, KeepRank: true,
			PageRank: pagerank.Options{Seed: 1, Iterations: 4},
		})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		return res
	}
	gor, sock := run(""), run("socket")
	for i := range gor.Rank {
		if sock.Rank[i] != gor.Rank[i] {
			t.Fatalf("mode results differ at %d", i)
		}
	}
	if *sock.Comm != *gor.Comm {
		t.Errorf("mode comm records differ: %+v vs %+v", *sock.Comm, *gor.Comm)
	}
}

func TestConfigDistModeValidated(t *testing.T) {
	if err := (Config{Scale: 6, DistMode: "mpi"}).Validate(); err == nil {
		t.Error("unknown DistMode accepted")
	}
	if err := (Config{Scale: 6, Variant: "dist", DistMode: "sim"}).Validate(); err == nil {
		t.Error("retired DistMode sim accepted")
	}
	if err := (Config{Scale: 6, Variant: "dist", DistMode: "socket"}).Validate(); err != nil {
		t.Errorf("valid DistMode rejected: %v", err)
	}
}
