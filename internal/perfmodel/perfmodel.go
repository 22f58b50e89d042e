package perfmodel

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/fastio"
)

// Hardware is the parameter set of the machine model.
type Hardware struct {
	// Name labels the model in reports.
	Name string
	// ScalarRate is sustained simple operations per second per core.
	ScalarRate float64
	// MemBandwidth is sustained memory bandwidth in bytes/second.
	MemBandwidth float64
	// StorageReadBW and StorageWriteBW are storage bandwidths in bytes/s.
	StorageReadBW  float64
	StorageWriteBW float64
	// NetLatency is the per-collective-hop latency in seconds.
	NetLatency float64
	// NetBandwidth is the per-link network bandwidth in bytes/second.
	NetBandwidth float64
	// Cores is the per-node core count.
	Cores int
}

// Validate reports parameter errors.
func (h Hardware) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"ScalarRate", h.ScalarRate},
		{"MemBandwidth", h.MemBandwidth},
		{"StorageReadBW", h.StorageReadBW},
		{"StorageWriteBW", h.StorageWriteBW},
		{"NetBandwidth", h.NetBandwidth},
	} {
		if f.v <= 0 {
			return fmt.Errorf("perfmodel: %s = %v, want > 0", f.name, f.v)
		}
	}
	if h.NetLatency < 0 {
		return fmt.Errorf("perfmodel: negative NetLatency")
	}
	if h.Cores < 1 {
		return fmt.Errorf("perfmodel: Cores = %d", h.Cores)
	}
	return nil
}

// PaperNode models the paper's test platform: an Intel Xeon E5-2650
// (2 GHz, 16 cores) with 64 GB of RAM and a Lustre filesystem.
func PaperNode() Hardware {
	return Hardware{
		Name:           "xeon-e5-2650-lustre",
		ScalarRate:     2e9,   // 2 GHz, ~1 simple op/cycle/core
		MemBandwidth:   40e9,  // DDR3-1600 4-channel class
		StorageReadBW:  800e6, // shared Lustre, single-client
		StorageWriteBW: 500e6,
		NetLatency:     2e-6, // InfiniBand class
		NetBandwidth:   5e9,  // 40 Gb/s class
		Cores:          16,
	}
}

// Workload carries the benchmark parameters the predictions depend on.
type Workload struct {
	// Scale is the Graph500 scale factor.
	Scale int
	// EdgeFactor is edges per vertex (16 in the benchmark).
	EdgeFactor int
	// Iterations is the kernel-3 iteration count (20 in the benchmark).
	Iterations int
	// Format names the edge-file codec the pipeline reads and writes
	// ("tsv", "naivetsv", "bin", "packed").  When BytesPerEdgeText is
	// zero, the model prices file traffic and codec compute from the
	// named codec's BytesPerEdge estimate at this workload's vertex
	// count.  Empty models the benchmark's tab-separated text default.
	Format string
	// BytesPerEdgeText is the average encoded file size of one edge.
	// Zero resolves it from Format (or the TSV default when Format is
	// also empty); set it explicitly to override the codec estimate.
	BytesPerEdgeText float64
	// RunEdges, when positive, selects the out-of-core kernel-1 regime
	// (dist.OpSortExternal): each node's run buffer holds RunEdges edges and
	// the sort round-trips its chunk through storage as sorted binary
	// runs.  Zero models the in-memory kernel 1.
	RunEdges int
	// SpillBytesPerEdge is the encoded size of one spilled edge in the
	// out-of-core regime.  Zero models the 16-byte fixed-width binary
	// spill record the sorters use by default; a packed-spill run
	// (pipeline.Config.Format "packed") prices in below 16.
	SpillBytesPerEdge float64
	// RankWorkers is the hybrid intra-rank worker count
	// (dist.Config.Workers): each rank's local compute runs on this many
	// cores of its node, capped at Hardware.Cores.  0/1 model serial
	// ranks.  Only compute terms divide by it — per-node memory and
	// storage bandwidth are shared by a node's workers, which is why the
	// memory-bound kernels stop speeding up once bandwidth binds (the
	// paper's central claim, now visible inside a single rank too).
	RankWorkers int
}

func (w Workload) withDefaults() Workload {
	if w.EdgeFactor == 0 {
		w.EdgeFactor = 16
	}
	if w.Iterations == 0 {
		w.Iterations = 20
	}
	if w.BytesPerEdgeText == 0 {
		if c, err := fastio.CodecByName(w.Format); w.Format != "" && err == nil {
			w.BytesPerEdgeText = c.BytesPerEdge(uint64(w.N()) - 1)
		} else {
			// Two ~6-digit labels, tab, newline at the paper's scales.
			w.BytesPerEdgeText = 14
		}
	}
	if w.SpillBytesPerEdge == 0 {
		w.SpillBytesPerEdge = 16 // fixed-width binary spill records
	}
	if w.RankWorkers < 1 {
		w.RankWorkers = 1
	}
	return w
}

// rankWorkers returns the effective intra-rank parallelism on h: the
// configured worker count, capped at the node's cores.
func (w Workload) rankWorkers(h Hardware) float64 {
	e := w.RankWorkers
	if e < 1 {
		e = 1
	}
	if h.Cores >= 1 && e > h.Cores {
		e = h.Cores
	}
	return float64(e)
}

// N returns the vertex count.
func (w Workload) N() float64 { return math.Exp2(float64(w.Scale)) }

// M returns the edge count.
func (w Workload) M() float64 { return float64(w.withDefaults().EdgeFactor) * w.N() }

// Model tuning constants: operation and traffic charges per edge.  These
// are the "simple hardware model" knobs; they are deliberately coarse.
const (
	// genOpsPerBit is the work to draw and place one Kronecker bit level
	// (two PRNG draws, two compares, two shifts).
	genOpsPerBit = 12.0
	// formatOpsPerByte / parseOpsPerByte are text codec costs.
	formatOpsPerByte = 2.0
	parseOpsPerByte  = 3.0
	// radixBytesPerEdgePass is memory traffic per edge per radix pass:
	// read 16 B + write 16 B.
	radixBytesPerEdgePass = 32.0
	// buildBytesPerEdge charges kernel 2's scatter: one cache line read
	// plus write amortized per edge placed out of order.
	buildBytesPerEdge = 96.0
	// spmvBytesPerNNZ is kernel 3's streaming traffic per stored entry:
	// 4 B column index + 8 B value + one amortized random access into the
	// rank vector (charged a half cache line) + output accumulation.
	spmvBytesPerNNZ = 52.0
	// partitionOpsPerEdge charges kernel 1's bucket partitioning: one
	// splitter binary search plus an append per routed edge — the only
	// kernel-1 work the hybrid intra-rank workers parallelize.
	partitionOpsPerEdge = 8.0
	// collisionFactor approximates NNZ/M after duplicate accumulation in
	// Kronecker graphs at paper scales.
	collisionFactor = 0.8
)

// Prediction is one kernel's predicted performance.
type Prediction struct {
	// Seconds is the predicted kernel duration.
	Seconds float64
	// EdgesPerSecond is the paper's metric for the kernel.
	EdgesPerSecond float64
	// Bound names the binding resource ("compute", "memory", "storage",
	// "network").
	Bound string
}

func prediction(edges float64, times map[string]float64) Prediction {
	var total float64
	bound, worst := "", 0.0
	for k, t := range times {
		total += t
		if t > worst {
			worst, bound = t, k
		}
	}
	return Prediction{Seconds: total, EdgesPerSecond: edges / total, Bound: bound}
}

// Kernel0 predicts graph generation and write-out.
func Kernel0(h Hardware, w Workload) Prediction {
	w = w.withDefaults()
	m := w.M()
	compute := m * (genOpsPerBit*float64(w.Scale) + formatOpsPerByte*w.BytesPerEdgeText) / h.ScalarRate
	storage := m * w.BytesPerEdgeText / h.StorageWriteBW
	return prediction(m, map[string]float64{"compute": compute, "storage": storage})
}

// Kernel1 predicts read, radix sort, write.
func Kernel1(h Hardware, w Workload) Prediction {
	w = w.withDefaults()
	m := w.M()
	passes := math.Ceil(float64(w.Scale) / 8)
	compute := m * (parseOpsPerByte + formatOpsPerByte) * w.BytesPerEdgeText / h.ScalarRate
	memory := m * radixBytesPerEdgePass * passes / h.MemBandwidth
	storage := m*w.BytesPerEdgeText/h.StorageReadBW + m*w.BytesPerEdgeText/h.StorageWriteBW
	return prediction(m, map[string]float64{"compute": compute, "memory": memory, "storage": storage})
}

// Kernel2 predicts read plus matrix construction and filtering.
func Kernel2(h Hardware, w Workload) Prediction {
	w = w.withDefaults()
	m := w.M()
	compute := m * parseOpsPerByte * w.BytesPerEdgeText / h.ScalarRate
	memory := m * buildBytesPerEdge / h.MemBandwidth
	storage := m * w.BytesPerEdgeText / h.StorageReadBW
	return prediction(m, map[string]float64{"compute": compute, "memory": memory, "storage": storage})
}

// Kernel3 predicts the fixed-iteration PageRank sweep.  Its reported rate
// uses Iterations·M edges, following the paper.
func Kernel3(h Hardware, w Workload) Prediction {
	w = w.withDefaults()
	m := w.M()
	nnz := m * collisionFactor
	iters := float64(w.Iterations)
	memory := iters * nnz * spmvBytesPerNNZ / h.MemBandwidth
	compute := iters * nnz * 2 / h.ScalarRate // multiply-add per entry
	return prediction(iters*m, map[string]float64{"memory": memory, "compute": compute})
}

// All returns predictions for the four kernels in order.
func All(h Hardware, w Workload) [4]Prediction {
	return [4]Prediction{Kernel0(h, w), Kernel1(h, w), Kernel2(h, w), Kernel3(h, w)}
}

// ---------------------------------------------------------------------------
// Parallel kernel-3 model (the paper's communication analysis)

// ParallelKernel3 predicts the distributed PageRank of package dist on p
// nodes of hardware h: compute time divides by p, while each iteration adds
// an all-reduce of the N-element rank vector whose cost grows with p.  The
// returned prediction's Bound turns "network" once the collective
// dominates — the paper's predicted behavior.
//
// Workload.RankWorkers adds the hybrid intra-rank term of dist.Config:
// the per-node compute time further divides by min(RankWorkers, Cores),
// while the per-node memory time does not (a node's workers share its
// bandwidth) — so intra-rank workers help exactly until the SpMV goes
// bandwidth-bound, which is what the prbench p×w scaling table measures.
func ParallelKernel3(h Hardware, w Workload, p int) Prediction {
	w = w.withDefaults()
	if p < 1 {
		p = 1
	}
	m := w.M()
	n := w.N()
	iters := float64(w.Iterations)
	nnz := m * collisionFactor
	memory := iters * nnz * spmvBytesPerNNZ / h.MemBandwidth / float64(p)
	compute := iters * nnz * 2 / h.ScalarRate / float64(p) / w.rankWorkers(h)
	network := 0.0
	if p > 1 {
		perIter := 2*n*8*float64(p-1)/float64(p)/h.NetBandwidth + math.Log2(float64(p))*h.NetLatency
		network = iters * perIter
	}
	times := map[string]float64{"memory": memory, "compute": compute}
	if p > 1 {
		times["network"] = network
	}
	return prediction(iters*m, times)
}

// ParallelKernel1 models the distributed sample sort of dist.OpSort on p
// nodes, mirroring its metered communication schedule phase for phase:
// per-node storage and radix work divide by p; the all-to-all exchange
// routes each node's M/p edges, of which an expected (p-1)/p fraction are
// off-node at 16 bytes (two uint64 endpoints) each, injected at
// NetBandwidth; and the splitter exchange — a gather of
// dist.SamplesPerRank keys per node followed by a broadcast of p-1
// splitters — adds its 8-bytes-per-key volume plus two log2(p)-depth
// collective latencies.  dist.OpSort's SortResult.Comm measures the same
// quantities, so model and measurement share their terms.
//
// A positive Workload.RunEdges switches the model to the out-of-core sort
// (dist.OpSortExternal): run formation spills each node's M/p-edge chunk to
// storage as SpillBytesPerEdge-byte records (16-byte fixed-width binary
// by default) and the pre-exchange partition streams it back, adding one
// storage write and one storage read of the chunk —
// the spill/merge I/O term dist's ExtSortResult.Spill measures (the k-way
// merge itself reads the already-exchanged segments from memory, so it
// adds no further storage traffic).
//
// Workload.RankWorkers adds the hybrid intra-rank term as a separate
// per-node partition charge (partitionOpsPerEdge per routed edge divided
// by min(RankWorkers, Cores)) — only the bucket partitioning is
// parallelized by dist.Config.Workers, so the text parse/format compute,
// the radix memory term and the storage terms do not divide by it.
func ParallelKernel1(h Hardware, w Workload, p int) Prediction {
	w = w.withDefaults()
	if p < 1 {
		p = 1
	}
	m := w.M()
	passes := math.Ceil(float64(w.Scale) / 8)
	compute := m*(parseOpsPerByte+formatOpsPerByte)*w.BytesPerEdgeText/h.ScalarRate/float64(p) +
		m*partitionOpsPerEdge/h.ScalarRate/float64(p)/w.rankWorkers(h)
	memory := m * radixBytesPerEdgePass * passes / h.MemBandwidth / float64(p)
	storage := (m*w.BytesPerEdgeText/h.StorageReadBW + m*w.BytesPerEdgeText/h.StorageWriteBW) / float64(p)
	if w.RunEdges > 0 {
		spill := m / float64(p) * w.SpillBytesPerEdge
		storage += spill/h.StorageWriteBW + spill/h.StorageReadBW
	}
	times := map[string]float64{"compute": compute, "memory": memory, "storage": storage}
	if p > 1 {
		perNode := m / float64(p) * 16 * float64(p-1) / float64(p)
		splitterExchange := 8 * float64(dist.SamplesPerRank+p-1)
		times["network"] = (perNode+splitterExchange)/h.NetBandwidth + 2*math.Log2(float64(p))*h.NetLatency
	}
	return prediction(m, times)
}

// ElapsedComparison relates the measured per-rank wall clock of a
// goroutine-mode distributed run (dist.Result.RankSeconds) to the
// parallel kernel-3 hardware model.  The model prices the iteration
// phase, so the comparison is sharpest for dist.OpRunMatrix results
// (pure kernel 3); for full dist.OpRun results the kernel-2 build adds
// a small constant the 20-iteration benchmark amortizes away.
type ElapsedComparison struct {
	// Procs is the rank count the comparison was taken at.
	Procs int
	// PredictedSeconds is ParallelKernel3's duration on the model hardware.
	PredictedSeconds float64
	// MeasuredSeconds is the slowest rank — the run's critical path.
	MeasuredSeconds float64
	// MeanSeconds is the average rank duration.
	MeanSeconds float64
	// Imbalance is MeasuredSeconds / MeanSeconds: 1.0 is a perfectly
	// balanced SPMD run; Kronecker hub rows push it above 1.
	Imbalance float64
	// Ratio is MeasuredSeconds / PredictedSeconds — how far the real host
	// sits from the modeled platform (it is not the modeled hardware, so
	// expect a stable constant across p rather than 1.0).
	Ratio float64
}

// CompareRankElapsed builds the predicted-vs-measured comparison for a
// distributed run's per-rank wall-clock times.
func CompareRankElapsed(h Hardware, w Workload, rankSeconds []float64) (ElapsedComparison, error) {
	if err := h.Validate(); err != nil {
		return ElapsedComparison{}, err
	}
	p := len(rankSeconds)
	if p == 0 {
		return ElapsedComparison{}, fmt.Errorf("perfmodel: no per-rank times")
	}
	var sum, max float64
	for _, s := range rankSeconds {
		sum += s
		if s > max {
			max = s
		}
	}
	mean := sum / float64(p)
	cmp := ElapsedComparison{
		Procs:            p,
		PredictedSeconds: ParallelKernel3(h, w, p).Seconds,
		MeasuredSeconds:  max,
		MeanSeconds:      mean,
	}
	if mean > 0 {
		cmp.Imbalance = max / mean
	}
	if cmp.PredictedSeconds > 0 {
		cmp.Ratio = max / cmp.PredictedSeconds
	}
	return cmp, nil
}

// Speedup returns ParallelKernel3(p).EdgesPerSecond relative to p = 1.
func Speedup(h Hardware, w Workload, p int) float64 {
	base := ParallelKernel3(h, w, 1).EdgesPerSecond
	return ParallelKernel3(h, w, p).EdgesPerSecond / base
}

// CommBoundProcessorCount returns the smallest p at which the network time
// of the parallel kernel-3 model exceeds its memory time — the scale where
// the paper's "likely to be limited by network communication" kicks in.
// It returns 0 if no p up to maxP is communication bound.
func CommBoundProcessorCount(h Hardware, w Workload, maxP int) int {
	w = w.withDefaults()
	for p := 2; p <= maxP; p *= 2 {
		m := w.M() * collisionFactor * spmvBytesPerNNZ / h.MemBandwidth / float64(p)
		net := 2*w.N()*8*float64(p-1)/float64(p)/h.NetBandwidth + math.Log2(float64(p))*h.NetLatency
		if net > m {
			return p
		}
	}
	return 0
}
