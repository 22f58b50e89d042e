// Package workteam provides a persistent signal/join worker team: n
// goroutines spawned once and driven round by round over pre-made
// channels.  Spawning goroutines per operation allocates; a team costs
// its allocations at construction and nothing per round, which is the
// allocation budget the kernel-3 engines are pinned to (DESIGN.md §7).
// Both the shared-memory parallel PageRank engine (internal/pagerank)
// and the hybrid per-rank SpMV teams (internal/dist) are built on it.
package workteam

import "sync"

// Team is a fixed set of worker goroutines executing one shared work
// function per round.  A Team must be Closed when no longer needed or
// its goroutines leak; it must not be used after Close, and rounds must
// not overlap (Run is not reentrant).
type Team struct {
	start []chan struct{}
	wg    sync.WaitGroup
}

// New spawns n worker goroutines, each executing work(worker) once per
// Run round.  Per-round inputs are typically fields of the owning struct
// that the caller writes before Run: the signalling channel send
// happens-after those writes and the join happens-after every worker's
// work returns, so the worker never races the caller on them.
func New(n int, work func(worker int)) *Team {
	t := &Team{start: make([]chan struct{}, n)}
	for i := 0; i < n; i++ {
		ch := make(chan struct{}, 1)
		t.start[i] = ch
		go func(worker int) {
			for range ch {
				work(worker)
				t.wg.Done()
			}
		}(i)
	}
	return t
}

// Size returns the number of workers.
func (t *Team) Size() int { return len(t.start) }

// Run executes one round — signal every worker, wait for all — with zero
// heap allocations.
func (t *Team) Run() {
	t.wg.Add(len(t.start))
	for _, ch := range t.start {
		ch <- struct{}{}
	}
	t.wg.Wait()
}

// Close terminates the worker goroutines.  The team must not be used
// afterwards.
func (t *Team) Close() {
	for _, ch := range t.start {
		close(ch)
	}
}
