// Socketfabric: the paper's communication model, metered on a real
// network.  This example runs the distributed kernel 2+3 pipeline in the
// socket execution mode with an *external* fabric — the coordinator
// listens on a unix-domain socket and three separately started worker
// processes join it, exactly the `cmd/prrankd` deployment — and then
// proves the three claims DESIGN.md §13 makes:
//
//  1. the final ranks are bit-for-bit equal to the goroutine mode's;
//  2. the payload bytes measured on the wire equal the metered CommStats
//     exactly;
//  3. the collective traffic (all-reduce + broadcast) equals the paper's
//     closed-form PredictedCommBytes, byte for byte.
//
// The worker side is this same binary re-run with -worker, which calls
// dist.JoinFabric just as prrankd does; in a real deployment the workers
// would be `prrankd -join <addr> -fabric <id>` on other hosts (with
// -network tcp).
//
//	go run ./examples/socketfabric
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"

	"repro/internal/dist"
	"repro/internal/kronecker"
	"repro/internal/pagerank"
)

const (
	procs    = 3
	scale    = 10
	fabricID = "socketfabric-example"
)

func main() {
	worker := flag.Bool("worker", false, "join the fabric as a worker rank (internal; what cmd/prrankd does)")
	join := flag.String("join", "", "coordinator address (with -worker)")
	flag.Parse()
	if *worker {
		if err := dist.JoinFabric(context.Background(), "unix", *join, fabricID); err != nil {
			log.Fatal("worker: ", err)
		}
		return
	}

	cfg := kronecker.New(scale, 42)
	l, err := kronecker.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	n := int(cfg.N())
	opt := pagerank.Options{Seed: 42, Iterations: 12, Policy: pagerank.DanglingUniform}

	// The reference: the same rank program on goroutine ranks, the
	// default fabric (in-process).
	ref, err := dist.Execute(context.Background(), dist.Spec{
		Op: dist.OpRun, Edges: l, N: n, Procs: procs, PageRank: opt,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The socket run: listen on a private unix socket, and start the
	// three workers ourselves once the address is known — the external
	// workflow, with this binary standing in for prrankd.
	dir, err := os.MkdirTemp("", "socketfabric-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	var workers []*exec.Cmd
	out, err := dist.Execute(context.Background(), dist.Spec{
		Config: dist.Config{Mode: dist.ExecSocket},
		Op:     dist.OpRun, Edges: l, N: n, Procs: procs, PageRank: opt,
		Socket: dist.SocketSpec{
			Network:  "unix",
			Addr:     filepath.Join(dir, "coord.sock"),
			External: true,
			FabricID: fabricID,
			OnListen: func(network, addr string) {
				fmt.Printf("coordinator listening on %s://%s\n", network, addr)
				self, err := os.Executable()
				if err != nil {
					log.Fatal(err)
				}
				for r := 0; r < procs; r++ {
					cmd := exec.Command(self, "-worker", "-join", addr)
					cmd.Stderr = os.Stderr
					if err := cmd.Start(); err != nil {
						log.Fatal("starting worker: ", err)
					}
					workers = append(workers, cmd)
				}
				fmt.Printf("started %d external workers (the prrankd role)\n", procs)
			},
		},
	})
	for _, cmd := range workers {
		cmd.Wait()
	}
	if err != nil {
		log.Fatal(err)
	}

	a, b := ref.Run, out.Run
	for i := range a.Rank {
		if a.Rank[i] != b.Rank[i] {
			log.Fatalf("rank[%d] differs between goroutine and socket modes", i)
		}
	}
	fmt.Printf("ranks:     bit-for-bit equal to the goroutine mode (%d vertices)\n", len(b.Rank))

	metered := b.Comm.AllToAllBytes + b.Comm.AllReduceBytes + b.Comm.BroadcastBytes
	fmt.Printf("wire:      %d payload bytes measured over %d frames\n", b.Wire.DataBytes, b.Wire.Frames)
	fmt.Printf("metered:   %d bytes in CommStats\n", metered)
	if b.Wire.DataBytes != metered {
		log.Fatal("measured wire bytes do not equal the metered comm bytes")
	}

	predicted := dist.PredictedCommBytes(n, procs, b.Iterations, true)
	collective := b.Comm.AllReduceBytes + b.Comm.BroadcastBytes
	fmt.Printf("predicted: %d collective bytes (closed form), measured %d\n", predicted, collective)
	if collective != predicted {
		log.Fatal("measured collective bytes do not equal PredictedCommBytes")
	}
	fmt.Println("the comm model held on a real network, byte for byte")
}
