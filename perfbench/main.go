// Command perfbench is the repository's benchmark.  It drives
// serve.Service.Run (core.Service) from one process with one of three
// request streams — cold-csr, cold-socket and warm-k3 — gates every
// response, and prints the end-to-end metrics (--trace 0) or, from a
// separate traced run, the per-layer metrics (--trace 1) as the last
// line of standard output, one JSON object.  README.md in this
// directory records the workloads, the metrics and what each layer
// metric should move.
//
//	bash perfbench/run.sh --workload cold-csr --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	opt := options{scale: benchScale, setupReps: 2, traceDir: ".bench_build/traces"}
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "cold-csr, cold-socket or warm-k3")
	flag.Uint64Var(&opt.seed, "seed", 1, "workload seed; every graph seed derives from it")
	flag.Float64Var(&opt.seconds, "seconds", 30, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	flag.Parse()
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || opt.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	opt.trace = trace == 1
	res, err := run(context.Background(), opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	fmt.Println("#", res.summary)
	line, err := res.line()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// line is the run's result object, the last line of standard output.
func (res *result) line() ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, res.metrics})
}
