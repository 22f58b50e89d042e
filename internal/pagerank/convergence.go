package pagerank

import (
	"fmt"

	"repro/internal/sparse"
)

// ConvergencePoint records the iterations a damping factor needed to reach
// a tolerance.
type ConvergencePoint struct {
	// Damping is the c value studied.
	Damping float64
	// Iterations is the number of update steps to reach the tolerance
	// (or the cap).
	Iterations int
	// Converged reports whether the tolerance was reached before the cap.
	Converged bool
	// FinalDiff is the last 1-norm difference observed.
	FinalDiff float64
}

// ConvergenceStudy measures how many iterations PageRank needs to converge
// to the given tolerance for each damping factor — the trade the paper
// describes when it replaces the "data dependent" convergence test with a
// fixed 20 iterations.  maxIterations caps each run (default 1000).
// The study quantifies the fixed-count choice: at c = 0.85 the contraction
// rate is c per iteration, so 20 iterations leave a ~c^20 ≈ 4% residual.
func ConvergenceStudy(a *sparse.CSR, dampings []float64, tolerance float64, maxIterations int, seed uint64) ([]ConvergencePoint, error) {
	if tolerance <= 0 {
		return nil, fmt.Errorf("pagerank: tolerance %v, want > 0", tolerance)
	}
	if maxIterations <= 0 {
		maxIterations = 1000
	}
	points := make([]ConvergencePoint, 0, len(dampings))
	for _, c := range dampings {
		res, err := Gather(a, Options{
			Damping:    c,
			Iterations: maxIterations,
			Tolerance:  tolerance,
			Seed:       seed,
			Policy:     DanglingUniform, // mass conservation makes tolerances comparable across c
		})
		if err != nil {
			return nil, fmt.Errorf("pagerank: damping %v: %w", c, err)
		}
		points = append(points, ConvergencePoint{
			Damping:    c,
			Iterations: res.Iterations,
			Converged:  res.FinalDiff < tolerance,
			FinalDiff:  res.FinalDiff,
		})
	}
	return points, nil
}
