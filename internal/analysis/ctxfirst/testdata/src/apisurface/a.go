// Package serve (a stand-in API package: the ctxfirst analyzer keys on
// the API package names serve/pipeline/dist/core) exercises the §8
// context-first contract.
package serve

import "context"

type Service struct{}

func runWith(ctx context.Context, n int) error { return ctx.Err() }

// --- true positives ---

func (s *Service) RunLate(n int, ctx context.Context) error { // want `exported serve.RunLate takes context.Context at parameter 1`
	return runWith(ctx, n)
}

func Late(a, b int, ctx context.Context) error { // want `exported serve.Late takes context.Context at parameter 2`
	return runWith(ctx, a+b)
}

func Fire(n int) error {
	return runWith(context.Background(), n) // want `exported serve.Fire passes a fabricated context downstream`
}

func FireTODO(n int) error {
	return runWith(context.TODO(), n) // want `exported serve.FireTODO passes a fabricated context downstream`
}

// A deprecated wrapper gets no exemption: it must take a context too.
//
// Deprecated: use Service.Run.
func OldFire(n int) error {
	return runWith(context.Background(), n) // want `exported serve.OldFire passes a fabricated context downstream`
}

// --- true negatives ---

// Context first is the contract.
func (s *Service) Run(ctx context.Context, n int) error {
	return runWith(ctx, n)
}

// The stored-context getter pattern returns (not passes) a default.
type Run struct{ ctx context.Context }

func (r *Run) Context() context.Context {
	if r.ctx != nil {
		return r.ctx
	}
	return context.Background()
}

// Unexported functions are not API surface.
func fire(n int) error { return runWith(context.TODO(), n) }

func lateHelper(n int, ctx context.Context) error { return runWith(ctx, n) }

// Methods on unexported types are not API surface.
type worker struct{}

func (w worker) Fire(n int) error { return runWith(context.Background(), n) }

// A justified suppression silences a finding.
func Detached(n int) error {
	//prlint:allow ctxfirst -- golden case for the suppression contract
	return runWith(context.Background(), n)
}
