package main

import (
	"math"
	"testing"
)

func TestCoveredMergesOverlappingChildren(t *testing.T) {
	parent := span{Start: 0, End: 10}
	kids := []span{
		{Start: 1, End: 3},
		{Start: 2, End: 4},   // overlaps the first: union [1,4)
		{Start: 6, End: 7},   // disjoint
		{Start: 9, End: 12},  // clipped to the parent's end
		{Start: -2, End: -1}, // outside: ignored
	}
	if got := covered(parent, kids); math.Abs(got-5) > 1e-12 {
		t.Fatalf("covered = %v, want 5", got)
	}
}

func TestSelfTimesSubtractOnlyChildren(t *testing.T) {
	r := newRecorder()
	root := r.add("serve.run", 0, 7, r.origin, r.origin)
	r.spans[root-1].End = 10
	kid := r.add("pipeline.k0", root, 7, r.origin, r.origin)
	r.spans[kid-1].Start, r.spans[kid-1].End = 2, 6
	other := r.add("serve.wait", 0, 7, r.origin, r.origin) // a root, not a child
	r.spans[other-1].End = 1
	got := r.selfTimes("serve.run", nil)
	if len(got) != 1 || math.Abs(got[0]-6) > 1e-12 {
		t.Fatalf("self times = %v, want [6]", got)
	}
	if got := r.selfTimes("serve.run", func(s span) bool { return s.Req != 7 }); len(got) != 0 {
		t.Fatalf("filtered self times = %v, want none", got)
	}
}

func TestQuantileAndTail(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if got := mean(xs); got != 2.5 {
		t.Fatalf("mean = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Fatalf("max quantile = %v, want 4", got)
	}
	if xs[0] != 4 {
		t.Fatal("quantile reordered its input")
	}
	for _, c := range []struct{ n, want int }{{8, 0}, {19, 0}, {20, 50}, {100, 90}, {172, 94}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}
