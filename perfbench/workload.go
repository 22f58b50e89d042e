package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/edge"
	"repro/internal/pagerank"
	"repro/internal/pipeline"
	"repro/internal/serve"
)

const (
	benchScale  = 17 // N = 131072 vertices, M = 2097152 edges
	edgeFactor  = 16
	iterations  = 20
	ranks       = 2 // socket ranks p, one per core of the sizing machine
	fixedProbes = 5
)

// workload is one request stream against a core.Service.
type workload struct {
	clients int // closed-loop clients, each waiting for its reply
	keys    int // graph keys filled during setup and cycled over; 0 = a fresh graph per request
	cfg     func(scale int, seed uint64) pipeline.Config
}

func csrConfig(scale int, seed uint64) pipeline.Config {
	return pipeline.Config{Scale: scale, Seed: seed, Variant: "csr",
		PageRank: pagerank.Options{Iterations: iterations}, KeepRank: true}
}

func socketConfig(scale int, seed uint64) pipeline.Config {
	c := csrConfig(scale, seed)
	c.Variant, c.DistMode, c.Workers, c.RankWorkers, c.Format = "dist", "socket", ranks, 1, "bin"
	return c
}

var workloads = map[string]workload{
	"cold-csr":    {clients: 1, cfg: csrConfig},
	"cold-socket": {clients: 1, cfg: socketConfig},
	"warm-k3":     {clients: 2, keys: 4, cfg: csrConfig},
}

// keyBytes bounds one graph key's resident cache footprint: the 16 B/edge
// raw list, the sorted list (its capacity can run ~1.3x the edge count)
// and the filtered matrix (12 B per entry plus row pointers), together
// about three raw lists.
func keyBytes(scale int) int64 { return 16 * (int64(edgeFactor) << scale) * 16 / 5 }

// service builds the workload's Service.  A cold workload's budget holds
// about one key, so every request misses all three stages, fills them
// and evicts its predecessor; warm-k3's holds every key it cycles over.
func (w workload) service(scale int) *serve.Service {
	budget := keyBytes(scale)
	if w.keys > 0 {
		budget *= int64(w.keys + 1)
	}
	return serve.New(serve.WithCacheBudget(budget), serve.WithMaxConcurrent(w.clients))
}

// graphSeed derives request i's graph seed from the workload seed
// (SplitMix64 over seed and index), so runs with one seed replay the
// same graphs and different seeds share none.
func graphSeed(seed uint64, i int) uint64 {
	z := seed*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// options is one benchmark run's settings.
type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	scale     int
	setupReps int    // set-ups per run; setup_s is their median
	traceDir  string // where a traced run writes its spans
	// tamper and tamperEdges corrupt a response or the replay's edges;
	// only the gate's tests set them.
	tamper      func(*pipeline.Result)
	tamperEdges func(*edge.List)
}

// sample is what a run keeps of one completed svc.Run call.  It drops
// the response's ranks, so the benchmark's own heap does not grow with
// the requests it sends.
type sample struct {
	seconds   float64
	kernels   []pipeline.KernelResult
	matrixHit bool
	traced    bool
	setup     bool
}

// runner carries a run's shared state.
type runner struct {
	opt  options
	w    workload
	rec  *recorder // nil when untraced
	svc  *serve.Service
	keys [][]float64 // warm-k3: each key's ranks from its setup fill

	mu        sync.Mutex
	ref       *pipeline.Result // the first timed response that passed, which a traced run replays
	samples   []sample
	attempted int
	failures  []error
}

// check counts one attempted check and records err if it failed.
func (r *runner) check(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failures = append(r.failures, err)
	}
}

// request runs one svc.Run, records the sample and gates the response,
// returning it only if it passed.  want, when non-nil, is the bit-for-bit
// expected rank vector.
func (r *runner) request(ctx context.Context, cfg pipeline.Config, id int, want []float64, traced, setup bool) *pipeline.Result {
	var opts []serve.RunOption
	var q *requestSpans
	if traced {
		q = r.rec.request(id)
		opts = append(opts, serve.WithProgress(q.observe))
	}
	start := time.Now()
	res, err := r.svc.Run(ctx, cfg, opts...)
	secs := time.Since(start).Seconds()
	if q != nil {
		q.done()
	}
	if err != nil {
		r.check(fmt.Errorf("request %d (seed %d): %w", id, cfg.Seed, err))
		return nil
	}
	if r.opt.tamper != nil && !setup {
		r.opt.tamper(res)
	}
	// A response that fails the gate still took its time: it is a
	// latency sample and a failure.
	err = checkResponse(res, cfg.Scale, want)
	r.mu.Lock()
	r.samples = append(r.samples, sample{seconds: secs, kernels: res.Kernels,
		matrixHit: res.Cache != nil && res.Cache.Matrix.Hits > 0, traced: traced, setup: setup})
	if err == nil && !setup && r.ref == nil {
		r.ref = res
	}
	r.mu.Unlock()
	if err != nil {
		r.check(fmt.Errorf("request %d (seed %d): %w", id, cfg.Seed, err))
		return nil
	}
	r.check(nil)
	return res
}

// setup builds the Service and brings it to the state the timed window
// starts from, returning each setup's duration.  It sets up setupReps
// times — a fresh Service plus one cold warm-up request (cold workloads)
// or a fill of every key (warm-k3) — and keeps the last Service.
func (r *runner) setup(ctx context.Context, next func() int) []float64 {
	var times []float64
	for rep := 0; rep < r.opt.setupReps; rep++ {
		start := time.Now()
		if r.svc != nil {
			r.svc.Close()
		}
		r.svc = r.w.service(r.opt.scale)
		if r.w.keys == 0 {
			i := next()
			r.request(ctx, r.w.cfg(r.opt.scale, graphSeed(r.opt.seed, i)), i, nil, r.rec != nil, true)
		}
		r.keys = r.keys[:0]
		for k := 0; k < r.w.keys; k++ {
			res := r.request(ctx, r.w.cfg(r.opt.scale, graphSeed(r.opt.seed, k)), k, nil, r.rec != nil, true)
			var rank []float64
			if res != nil {
				rank = append([]float64(nil), res.Rank...)
			}
			r.keys = append(r.keys, rank)
		}
		// Every window starts from a collected heap.
		runtime.GC()
		times = append(times, time.Since(start).Seconds())
	}
	return times
}

// loop is the timed closed loop: each client sends its next request only
// after the previous reply, until the window closes.  It returns the
// window's length, from its start to the last reply.
func (r *runner) loop(ctx context.Context, next func() int) float64 {
	start := time.Now()
	deadline := start.Add(time.Duration(r.opt.seconds * float64(time.Second)))
	var sent atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < r.w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Two requests per client at least, so even a window shorter
			// than a request has a traced and an untraced one.
			for n := 0; n < 2 || time.Now().Before(deadline); n++ {
				i := next()
				seed := graphSeed(r.opt.seed, i)
				var want []float64
				if r.w.keys > 0 {
					k := i % r.w.keys
					seed, want = graphSeed(r.opt.seed, k), r.keys[k]
					if want == nil {
						r.check(fmt.Errorf("request %d: key %d was never filled", i, k))
						continue
					}
				}
				// A traced run traces every other request, so the two
				// halves give the tracing overhead.
				traced := r.rec != nil && sent.Add(1)%2 == 1
				r.request(ctx, r.w.cfg(r.opt.scale, seed), i, want, traced, false)
			}
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// result is a run's outcome.
type result struct {
	attempted, failed int
	failures          []error
	metrics           map[string]metric
	summary           string
}

// kernelWork sums one kernel's work over the requests that ran it.
type kernelWork struct{ edges, seconds float64 }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one benchmark run.
func run(ctx context.Context, opt options) (*result, error) {
	w, ok := workloads[opt.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have cold-csr, cold-socket, warm-k3)", opt.workload)
	}
	r := &runner{opt: opt, w: w}
	if opt.trace {
		r.rec = newRecorder()
	}
	var counter atomic.Int64
	next := func() int { return int(counter.Add(1) - 1) }
	if w.keys > 0 {
		counter.Store(int64(w.keys)) // request ids continue after the key fills
	}
	setupTimes := r.setup(ctx, next)
	window := r.loop(ctx, next)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	stats := r.svc.Stats()
	defer r.svc.Close()

	var timed, untraced, traced []float64
	kernels := map[pipeline.Kernel]*kernelWork{}
	setupKernels := map[pipeline.Kernel]*kernelWork{}
	hits := 0
	for _, s := range r.samples {
		dst := kernels
		if s.setup {
			dst = setupKernels
		} else {
			timed = append(timed, s.seconds)
			if s.traced {
				traced = append(traced, s.seconds)
			} else {
				untraced = append(untraced, s.seconds)
			}
			if s.matrixHit {
				hits++
			}
		}
		for _, k := range s.kernels {
			if dst[k.Kernel] == nil {
				dst[k.Kernel] = &kernelWork{}
			}
			dst[k.Kernel].edges += float64(k.Edges)
			dst[k.Kernel].seconds += k.Seconds
		}
	}
	if len(timed) == 0 {
		return nil, fmt.Errorf("%s: no request completed in the %.1f s window (%d failed)", opt.workload, opt.seconds, len(r.failures))
	}
	// A kernel's rate is the edges of every timed request that ran it over
	// the seconds they spent in it; warm-k3's timed requests run only K3,
	// so its K0-K2 rates come from the setup fills, which are svc.Run
	// requests too.
	rate := func(k pipeline.Kernel) float64 {
		w := kernels[k]
		if w == nil {
			w = setupKernels[k]
		}
		if w == nil {
			return math.NaN() // no request ran the kernel
		}
		return w.edges / w.seconds
	}
	res := &result{metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { res.metrics[name] = metric{v, unit} }
	if !opt.trace {
		put("setup_s", "s", median(setupTimes))
		put("run_s.mean", "s", mean(timed))
		put("runs_per_s", "1/s", float64(len(timed))/window)
		put("k0_edges_per_s", "edges/s", rate(pipeline.K0Generate))
		put("k1_edges_per_s", "edges/s", rate(pipeline.K1Sort))
		put("k2_edges_per_s", "edges/s", rate(pipeline.K2Filter))
		put("k3_edges_per_s", "edges/s", rate(pipeline.K3PageRank))
		put("heap_sys_mb", "MiB", float64(mem.HeapSys)/(1<<20))
	} else {
		put("serve.matrix_hit_ratio", "ratio", float64(hits)/float64(len(timed)))
		put("serve.cache_bytes", "B", float64(stats.CacheBytes))
		put("trace.overhead_s", "s", mean(traced)-mean(untraced))
		if err := r.layerMetrics(ctx, put); err != nil {
			return nil, err
		}
		if opt.traceDir != "" {
			path := fmt.Sprintf("%s/%s-seed%d.json", opt.traceDir, opt.workload, opt.seed)
			if err := r.rec.write(path); err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
		}
	}
	res.attempted, res.failures = r.attempted, r.failures
	res.failed = len(r.failures)
	tail := tailPercentile(len(timed))
	res.summary = fmt.Sprintf("%s seed=%d scale=%d clients=%d requests=%d window_s=%.3f setup_s=%v run_s.mean=%.4f run_s.p50=%.4f",
		opt.workload, opt.seed, opt.scale, w.clients, len(timed), window, setupTimes, mean(timed), median(timed))
	if tail > 0 {
		res.summary += fmt.Sprintf(" run_s.p%d=%.4f (n=%d, %d beyond)", tail, quantile(timed, float64(tail)/100),
			len(timed), len(timed)*(100-tail)/100)
	}
	res.summary += fmt.Sprintf(" failed_ratio=%g", res.failedRatio())
	return res, nil
}

// failedRatio is failed ÷ attempted.
func (res *result) failedRatio() float64 {
	if res.attempted == 0 {
		return 0
	}
	return float64(res.failed) / float64(res.attempted)
}
