package dist

// The rank runtime: p ranks, each owning its rectangular block of the
// matrix and its chunk of the input, communicating only through the
// collective layer of collective.go.  Every rank executes the same
// program — buildRank/iterateRank for kernels 2 and 3 (run.go),
// sortRank for kernel 1 (sort.go), sortExternalRank for kernel 1 beyond
// RAM (sortext.go) — over one of two fabrics: typed channels between
// goroutines (ExecGoroutine, spawnRanks below) or sockets between worker
// processes (ExecSocket, socket.go).  DESIGN.md §5 specifies the
// contract; the property tests pin the results against the serial
// engines and the byte counts against the closed form.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/edge"
)

// ExecMode selects the fabric the distributed runtime's p ranks run on.
type ExecMode int

const (
	// ExecGoroutine runs p concurrent goroutine ranks exchanging real
	// messages over channels (the default); wall clock scales with the
	// host's cores.
	ExecGoroutine ExecMode = iota
	// ExecSocket runs p ranks as separate OS processes exchanging real
	// messages over unix-domain or TCP sockets (socket.go; DESIGN.md
	// §13).  Results, CommStats and spill records equal the goroutine
	// mode's bit for bit, and the measured socket payload bytes equal
	// the metered CommStats — the paper's comm model tested against
	// bytes on an actual wire.
	ExecSocket
)

// validExecModes names every mode ParseExecMode accepts, for error
// messages — the single list both unknown-mode errors quote, so the two
// cannot drift.
const validExecModes = "goroutine, socket"

// String implements fmt.Stringer.
func (m ExecMode) String() string {
	switch m {
	case ExecGoroutine:
		return "goroutine"
	case ExecSocket:
		return "socket"
	default:
		return fmt.Sprintf("mode?(%d)", int(m))
	}
}

// ParseExecMode resolves the command-line spelling of a mode; the empty
// string selects the goroutine ranks.
func ParseExecMode(s string) (ExecMode, error) {
	switch s {
	case "", "goroutine", "go":
		return ExecGoroutine, nil
	case "socket", "sock":
		return ExecSocket, nil
	default:
		return 0, fmt.Errorf("dist: unknown execution mode %q (valid modes: %s)", s, validExecModes)
	}
}

// rankOutcome is what one rank's program hands back to the driver.
type rankOutcome struct {
	// st is the rank's built state (kernel-2 programs only).
	st *rankState
	// rank is the final replicated rank vector; the driver reports rank
	// 0's copy (all replicas are byte-identical).
	rank []float64
	// iters is the performed iteration count.
	iters int
	// mass and nnz are the globally reduced kernel-2 scalars (identical
	// on every rank after their all-reduces).
	mass float64
	nnz  int
	// edges is the rank's sorted bucket (sort programs only).
	edges *edge.List
	// runs is the rank's spilled-run count (out-of-core sort program only).
	runs int
	// err is a per-rank failure; the schedule guarantees option errors
	// surface identically on every rank before any collective, so no rank
	// can strand another inside one.
	err error
}

// joined collects the per-rank outcomes plus the summed communication
// record.
type joined struct {
	outcomes []rankOutcome
	result   *Result
}

// errRunAborted is the error a rank reports when it unwound because the
// fabric came down underneath it — a peer failed, or the run's context
// was cancelled.  spawnRanks surfaces the cause (the context's error or
// the originating rank's error) in preference to this sentinel.
var errRunAborted = errors.New("dist: run aborted")

// spawnRanks runs the rank program on p concurrent goroutines over a
// fresh fabric, joins them, and folds the per-rank communication records
// and wall-clock times into a Result skeleton.
//
// Teardown is defer-based and cannot strand a rank: a rank whose program
// returns an error (or panics) trips the fabric's teardown plane on its
// way out, which unwinds every peer blocked inside a collective; a
// cancelled ctx trips the same plane through a watcher goroutine.  Every
// rank goroutine therefore joins — wg.Wait cannot hang — and the watcher
// itself is stopped before spawnRanks returns, so an aborted run leaks
// nothing (rank_test.go counts goroutines to pin this).
func spawnRanks(ctx context.Context, p int, program func(c *rankComm) rankOutcome) (*joined, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f := newChanFabric(p)
	var stopWatch chan struct{}
	if ctx.Done() != nil {
		stopWatch = make(chan struct{})
		//prlint:allow determinism -- cancellation watcher: joins via stopWatch before spawnRanks returns, never touches results
		go func() {
			select {
			case <-ctx.Done():
				f.abort()
			case <-stopWatch:
			}
		}()
	}
	comms := make([]*rankComm, p)
	outcomes := make([]rankOutcome, p)
	seconds := make([]float64, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		comms[r] = newRankComm(f, r)
		wg.Add(1)
		//prlint:allow determinism -- the rank spawner IS the distributed machine; ranks sync only through the metered fabric and join on wg
		go func(r int) {
			defer wg.Done()
			// Runs after the recover below: a rank that failed for any
			// reason brings the fabric down so no peer waits for it.
			defer func() {
				if outcomes[r].err != nil {
					f.abort()
				}
			}()
			defer func() {
				if e := recover(); e != nil {
					if _, down := e.(fabricDown); down {
						outcomes[r].err = errRunAborted
						return
					}
					// A genuine bug: free the peers, then crash as before.
					f.abort()
					panic(e)
				}
			}()
			//prlint:allow determinism -- wall-clock feeds only the reported per-rank timing, never the kernel results
			start := time.Now()
			outcomes[r] = program(comms[r])
			//prlint:allow determinism -- wall-clock feeds only the reported per-rank timing, never the kernel results
			seconds[r] = time.Since(start).Seconds()
		}(r)
	}
	wg.Wait()
	if stopWatch != nil {
		close(stopWatch)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The originating failure (in rank order) outranks the aborted
	// sentinel of the ranks it unwound.
	var aborted error
	for r := 0; r < p; r++ {
		switch err := outcomes[r].err; {
		case err == nil:
		case errors.Is(err, errRunAborted):
			if aborted == nil {
				aborted = err
			}
		default:
			return nil, err
		}
	}
	if aborted != nil {
		return nil, aborted
	}
	res := &Result{
		Rank:        outcomes[0].rank,
		Iterations:  outcomes[0].iters,
		NNZ:         outcomes[0].nnz,
		RankSeconds: seconds,
	}
	for r := 0; r < p; r++ {
		res.Comm.Add(comms[r].st)
	}
	return &joined{outcomes: outcomes, result: res}, nil
}
