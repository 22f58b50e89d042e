package main

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/edge"
	"repro/internal/pipeline"
	"repro/internal/serve"
)

const testScale = 6

// freshResponse runs one real cold request at the test scale.
func freshResponse(t *testing.T) *pipeline.Result {
	t.Helper()
	svc := serve.New()
	defer svc.Close()
	res, err := svc.Run(context.Background(), csrConfig(testScale, 42))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCheckResponseRejectsCorruption(t *testing.T) {
	want := append([]float64(nil), freshResponse(t).Rank...)
	if err := checkResponse(freshResponse(t), testScale, want); err != nil {
		t.Fatalf("pristine response rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*pipeline.Result)
	}{
		{"one rank bit flipped", func(r *pipeline.Result) { r.Rank[3] = math.Float64frombits(math.Float64bits(r.Rank[3]) ^ 1) }},
		{"negative rank", func(r *pipeline.Result) { r.Rank[0] = -r.Rank[0] }},
		{"NaN rank", func(r *pipeline.Result) { r.Rank[1] = math.NaN() }},
		{"short rank", func(r *pipeline.Result) { r.Rank = r.Rank[:len(r.Rank)-1] }},
		{"one iteration short", func(r *pipeline.Result) { r.RankIterations-- }},
		{"mass off by one edge", func(r *pipeline.Result) { r.MatrixMass-- }},
		{"empty matrix", func(r *pipeline.Result) { r.NNZ = 0 }},
		{"unfiltered matrix", func(r *pipeline.Result) { r.NNZ = edgeFactor << testScale }},
	}
	for _, c := range cases {
		res := freshResponse(t)
		c.mutate(res)
		if err := checkResponse(res, testScale, want); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// smallRun runs a workload at the test scale with a short window.
func smallRun(t *testing.T, opt options) *result {
	t.Helper()
	opt.scale, opt.setupReps, opt.traceDir = testScale, 1, t.TempDir()
	if opt.seconds == 0 {
		opt.seconds = 0.3
	}
	if opt.seed == 0 {
		opt.seed = 1
	}
	res, err := run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFailedRatioCountsCorruptResponses(t *testing.T) {
	flipped := false
	cases := []struct {
		workload string
		tamper   func(*pipeline.Result)
	}{
		// Negative ranks fail the structural gate every workload applies.
		{"cold-csr", func(r *pipeline.Result) { r.Rank[0] = -r.Rank[0] }},
		// A flipped low bit is caught only by warm-k3's bit-for-bit check
		// against the key's setup fill; flip it once.
		{"warm-k3", func(r *pipeline.Result) {
			if !flipped {
				flipped = true
				r.Rank[5] = math.Float64frombits(math.Float64bits(r.Rank[5]) ^ 1)
			}
		}},
	}
	for _, c := range cases {
		clean := smallRun(t, options{workload: c.workload})
		if clean.failed != 0 || clean.failedRatio() != 0 {
			t.Fatalf("%s: clean run failed %d of %d: %v", c.workload, clean.failed, clean.attempted, clean.failures)
		}
		res := smallRun(t, options{workload: c.workload, tamper: c.tamper})
		if res.failed == 0 || res.failedRatio() <= 0 {
			t.Errorf("%s: corrupted responses passed the gate (failed %d of %d)", c.workload, res.failed, res.attempted)
		}
	}
	if !flipped {
		t.Error("warm-k3 never delivered a response to corrupt")
	}
}

func TestReplayDetectsDroppedEdge(t *testing.T) {
	drop := func(l *edge.List) {
		l.U, l.V = l.U[:len(l.U)-1], l.V[:len(l.V)-1]
	}
	res := smallRun(t, options{workload: "cold-csr", trace: true, tamperEdges: drop})
	if res.failed == 0 || res.failedRatio() <= 0 {
		t.Fatalf("a replay missing one edge passed (failed %d of %d)", res.failed, res.attempted)
	}
	found := false
	for _, err := range res.failures {
		found = found || strings.Contains(err.Error(), "replay rank")
	}
	if !found {
		t.Errorf("no replay-rank failure among %v", res.failures)
	}
}
