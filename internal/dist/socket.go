package dist

// The socket coordinator: ExecSocket's driver side.  Execute stays the
// single entry point; for the socket mode it delegates here, and this
// file does what spawnRanks does for goroutines — bring up p ranks, hand
// each the shared schedule, join them, fold their outcomes — except the
// ranks are separate OS processes reached over real sockets (DESIGN.md
// §13):
//
//	listen  — open the coordinator's control listener (unix or tcp);
//	spawn   — re-exec this binary p times with the join environment
//	          (sockworker.go's init hook), unless Socket.External asks
//	          for workers started by hand (cmd/prrankd);
//	admit   — accept p joins, assign ranks in join order, reject
//	          strays by fabric id;
//	welcome — send every worker the full mesh address table, await the
//	          p ready frames proving the worker-to-worker mesh is up;
//	job     — gob one wireJob per rank down the control links;
//	serve   — per worker, relay progress and checkpoint traffic until
//	          its outcome frame (or its death) arrives;
//	join    — reap the children and fold the outcomes exactly like
//	          spawnRanks: context error first, then the originating
//	          failure in rank order, then the aborted sentinel.
//
// Teardown mirrors the goroutine fabric's plane: the first failure —
// a worker death, a failed outcome, a cancelled context — trips a
// once-guarded teardown that closes the listener and every control
// link.  Each surviving worker's control reader turns that into a local
// cancel plus mesh abort, so every process unwinds and every child is
// reaped before Execute returns; the tearing flag keeps the induced
// follow-on errors classified as the aborted sentinel, preserving the
// originating error's precedence.

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/dist/fabric"
	"repro/internal/edge"
)

// DefaultJoinTimeout bounds the socket handshake: listen to all ranks
// ready.  It covers p process spawns plus a p²/2-connection mesh on a
// loaded CI host, while still failing a genuinely missing worker.
const DefaultJoinTimeout = 60 * time.Second

// SocketSpec configures the socket execution mode (Spec.Socket).  The
// zero value is fully usable: a private unix-domain fabric on an
// auto-assigned address, workers self-spawned from the current binary.
type SocketSpec struct {
	// Network is the fabric's address family: "unix" (the default) or
	// "tcp".  Control and mesh connections use the same family.
	Network string
	// Addr is the coordinator's listen address — a socket path for
	// "unix", host:port for "tcp".  Empty picks a private temporary path
	// ("unix") or a loopback port ("tcp"); OnListen reports the result.
	Addr string
	// External suppresses self-spawning: the coordinator listens and
	// waits for p externally started workers (cmd/prrankd) to join.
	// FabricID is then required, since the workers must present it.
	External bool
	// FabricID authenticates joins.  Empty (with External unset) selects
	// a random id, which the spawn environment hands the children.
	FabricID string
	// IOTimeout is the per-frame deadline on every fabric connection:
	// 0 selects fabric.DefaultIOTimeout, negative disables deadlines.
	IOTimeout time.Duration
	// JoinTimeout bounds the whole handshake (listen to all ranks
	// ready); <= 0 selects DefaultJoinTimeout.
	JoinTimeout time.Duration
	// OnListen, when non-nil, observes the resolved listen address
	// before any worker is admitted — how an External caller learns an
	// auto-assigned address to start workers against.
	OnListen func(network, addr string)
}

// newFabricID mints a random fabric id for a self-spawned fabric.
func newFabricID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}

// sockJoined is the coordinator's equivalent of joined: the per-rank
// outcomes plus the folded communication, timing and wire records.
type sockJoined struct {
	outcomes []*wireOutcome
	comm     CommStats
	seconds  []float64
	wire     WireStats
}

// jobOf flattens a Spec into the wireJob every worker receives; the
// caller strips the per-rank fields (perRankJob) before sending.
func jobOf(spec Spec, ck *ckptRun) *wireJob {
	job := &wireJob{
		Op:             int(spec.Op),
		Procs:          spec.Procs,
		N:              specN(spec),
		Workers:        spec.Config.workers(),
		Opt:            optToWire(spec.PageRank),
		ReportProgress: spec.PageRank.Progress != nil,
		Fault:          spec.Fault,
	}
	if spec.Edges != nil {
		job.EdgesU, job.EdgesV = spec.Edges.U, spec.Edges.V
	}
	if spec.Op == OpRunMatrix {
		job.Matrix = matrixToWire(spec.Matrix)
	}
	if spec.Op == OpSortExternal {
		job.Ext = wireExt{
			RunEdges:  spec.Ext.RunEdges,
			TmpPrefix: spec.Ext.TmpPrefix,
			CodecName: spec.Ext.Codec.Name(),
		}
	}
	if ck != nil {
		job.Ckpt = wireCkpt{
			On:      ck.spec.enabled(),
			Every:   ck.spec.Every,
			N:       ck.n,
			Damping: ck.damping,
			Base:    ck.base,
		}
	}
	return job
}

// perRankJob specializes the shared job for one rank: only rank 0
// carries the initial vector and reports progress (iterateRank
// broadcasts the vector and single-observes the hook, exactly as on
// goroutine ranks).
func perRankJob(job *wireJob, rank int) *wireJob {
	if rank == 0 {
		return job
	}
	j := *job
	j.Opt.InitialRank = nil
	j.ReportProgress = false
	return &j
}

// socketOutcomes runs one job on a fresh socket fabric of spec.Procs
// worker processes and joins them.  ck (may be nil) supplies the
// coordinator-side checkpoint storage the workers' relay frames land on.
func socketOutcomes(ctx context.Context, spec Spec, ck *ckptRun, job *wireJob) (*sockJoined, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p := spec.Procs
	sk := spec.Socket
	network := sk.Network
	if network == "" {
		network = "unix"
	}
	fabricID := sk.FabricID
	if fabricID == "" {
		if sk.External {
			return nil, fmt.Errorf("dist: external socket fabric requires Socket.FabricID")
		}
		var err error
		if fabricID, err = newFabricID(); err != nil {
			return nil, err
		}
	}
	addr := sk.Addr
	if addr == "" {
		switch network {
		case "unix":
			dir, err := os.MkdirTemp("", "prfabric")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			addr = filepath.Join(dir, "coord.sock")
		case "tcp":
			addr = "127.0.0.1:0"
		default:
			return nil, fmt.Errorf("dist: unknown fabric network %q (want unix or tcp)", network)
		}
	}
	ln, err := fabric.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	addr = ln.Addr().String()
	if sk.OnListen != nil {
		sk.OnListen(network, addr)
	}

	// Self-spawn: p copies of this very binary, flipped into worker mode
	// by the join environment (sockworker.go's init hook).  Stderr is
	// inherited so a worker's crash is visible.  The children are reaped
	// before this function returns, on every path.
	var cmds []*exec.Cmd
	defer func() { reapWorkers(cmds) }()
	if !sk.External {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		env := append(os.Environ(),
			envJoin+"="+network+"|"+addr,
			envFabricID+"="+fabricID)
		for i := 0; i < p; i++ {
			cmd := exec.Command(exe)
			cmd.Env = env
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				return nil, fmt.Errorf("dist: spawning worker %d: %w", i, err)
			}
			cmds = append(cmds, cmd)
		}
	}

	// Admission under the join timer: accept until p workers presented
	// the fabric id, assigning ranks in join order; strays are rejected
	// and the timer converts a missing worker into a clean error.
	joinTimeout := sk.JoinTimeout
	if joinTimeout <= 0 {
		joinTimeout = DefaultJoinTimeout
	}
	var timedOut atomic.Bool
	timer := time.AfterFunc(joinTimeout, func() {
		timedOut.Store(true)
		ln.Close()
	})
	defer timer.Stop()
	joinErr := func(stage string, err error) error {
		if timedOut.Load() {
			return fmt.Errorf("dist: socket fabric %s timed out after %v", stage, joinTimeout)
		}
		return fmt.Errorf("dist: socket fabric %s: %w", stage, err)
	}
	var ctrlStats fabric.Stats
	ctrls := make([]*fabric.Link, 0, p)
	closeCtrls := func() {
		for _, c := range ctrls {
			c.Close()
		}
	}
	meshAddrs := make([]string, 0, p)
	for len(ctrls) < p {
		conn, err := ln.Accept()
		if err != nil {
			closeCtrls()
			if timedOut.Load() {
				return nil, fmt.Errorf("dist: socket fabric join timed out after %v (%d of %d workers joined)", joinTimeout, len(ctrls), p)
			}
			return nil, joinErr("accept", err)
		}
		c := fabric.NewLink(conn, sk.IOTimeout, &ctrlStats)
		h, payload, err := c.ReadFrame()
		if err != nil || h.Type != fabric.FrameJoin {
			c.Close()
			continue
		}
		j, err := fabric.ParseJoin(payload)
		if err != nil || j.FabricID != fabricID || j.MeshNetwork != network {
			_ = c.WriteControl(fabric.FrameReject, 0, 0, []byte("dist: join rejected: wrong fabric id or network"))
			c.Close()
			continue
		}
		ctrls = append(ctrls, c)
		meshAddrs = append(meshAddrs, j.MeshAddr)
	}

	// Welcome each rank with the full address table, then await the p
	// ready frames proving the worker mesh is complete.
	for r, c := range ctrls {
		err := c.WriteControl(fabric.FrameWelcome, 0, r, fabric.AppendWelcome(nil, fabric.Welcome{
			Rank: r, Procs: p, MeshNetwork: network, MeshAddrs: meshAddrs,
		}))
		if err != nil {
			closeCtrls()
			return nil, joinErr("welcome", err)
		}
	}
	for r, c := range ctrls {
		h, _, err := c.ReadFrame()
		if err != nil || h.Type != fabric.FrameReady {
			closeCtrls()
			if err == nil {
				err = fmt.Errorf("unexpected %v frame from rank %d in place of ready", h.Type, r)
			}
			return nil, joinErr("mesh", err)
		}
	}
	timer.Stop()

	// Ship the jobs; the run is on.
	for r, c := range ctrls {
		buf, err := encodeGob(perRankJob(job, r))
		if err != nil {
			closeCtrls()
			return nil, err
		}
		if err := c.WriteControl(fabric.FrameJob, 0, r, buf); err != nil {
			closeCtrls()
			return nil, joinErr("job", err)
		}
	}

	// The teardown plane: first failure closes the listener and every
	// control link; tearing keeps the induced errors classified as the
	// aborted sentinel so the originating error keeps its precedence.
	var tearing atomic.Bool
	var teardownOnce sync.Once
	teardown := func() {
		teardownOnce.Do(func() {
			tearing.Store(true)
			ln.Close()
			closeCtrls()
		})
	}
	stopWatch := make(chan struct{})
	//prlint:allow determinism -- cancellation watcher: joins via stopWatch before socketOutcomes returns, never touches results
	go func() {
		select {
		case <-ctx.Done():
			teardown()
		case <-stopWatch:
		}
	}()

	outs := make([]*wireOutcome, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r, c := range ctrls {
		wg.Add(1)
		//prlint:allow determinism -- per-worker control server: relays storage and progress, joins on wg before results are read
		go func(r int, c *fabric.Link) {
			defer wg.Done()
			out, err := serveWorker(spec, ck, r, c, &tearing)
			outs[r], errs[r] = out, err
			if err != nil || out.ErrKind != errKindNone {
				teardown()
			}
		}(r, c)
	}
	wg.Wait()
	close(stopWatch)
	teardownOnce.Do(func() {}) // clean finish: nothing tripped the plane
	closeCtrls()
	reapWorkers(cmds)
	cmds = nil

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Fold exactly like spawnRanks: the originating failure (in rank
	// order) outranks the aborted sentinel of the ranks it unwound.
	var aborted error
	for r := 0; r < p; r++ {
		err := errs[r]
		if err == nil && outs[r] != nil {
			err = outs[r].outcomeErr()
		}
		switch {
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
	j := &sockJoined{outcomes: outs, seconds: make([]float64, p)}
	for r, o := range outs {
		j.comm.Add(o.Comm)
		j.seconds[r] = o.Seconds
		j.wire.Add(o.Wire)
	}
	return j, nil
}

// serveWorker is one worker's control server: it relays progress and
// checkpoint frames until the worker's outcome (or death) ends the
// stream.  Checkpoint chunks and commits land on the coordinator's
// storage through the same ckpt calls the goroutine ranks make, and the
// acks carry the write errors back into the workers' agreeError
// barriers — so the epoch protocol, torn-epoch semantics included, is
// the goroutine mode's verbatim.
func serveWorker(spec Spec, ck *ckptRun, rank int, c *fabric.Link, tearing *atomic.Bool) (*wireOutcome, error) {
	ack := func(msg string) error {
		if err := c.WriteControl(fabric.FrameCkptAck, 0, rank, []byte(msg)); err != nil {
			if tearing.Load() {
				// The link was closed under us by the teardown plane.
				return errRunAborted
			}
			return fmt.Errorf("dist: rank %d checkpoint ack: %v", rank, err)
		}
		return nil
	}
	for {
		h, payload, err := c.ReadFrame()
		if err != nil {
			if tearing.Load() {
				return nil, errRunAborted
			}
			return nil, fmt.Errorf("dist: rank %d worker died: %v", rank, err)
		}
		switch h.Type {
		case fabric.FrameProgress:
			if spec.PageRank.Progress != nil && len(payload) == 8 {
				spec.PageRank.Progress(int(binary.LittleEndian.Uint64(payload)))
			}
		case fabric.FrameCkptChunk:
			msg := ""
			if ck == nil || !ck.spec.enabled() {
				msg = "dist: checkpoint relay without coordinator storage"
			} else if chunk, derr := ckpt.Decode(bytes.NewReader(payload)); derr != nil {
				msg = derr.Error()
			} else if werr := ckpt.WriteChunk(ck.spec.FS, ck.spec.Prefix, chunk); werr != nil {
				msg = werr.Error()
			}
			if err := ack(msg); err != nil {
				return nil, err
			}
		case fabric.FrameCkptCommit:
			msg := ""
			if ck == nil || !ck.spec.enabled() || len(payload) != 8 {
				msg = "dist: checkpoint relay without coordinator storage"
			} else {
				g := int64(binary.LittleEndian.Uint64(payload))
				if werr := ckpt.WriteCommit(ck.spec.FS, ck.spec.Prefix, g, ck.n, ck.procs, ck.damping); werr != nil {
					msg = werr.Error()
				} else {
					ck.noteCommitted(g)
				}
			}
			if err := ack(msg); err != nil {
				return nil, err
			}
		case fabric.FrameOutcome:
			out := new(wireOutcome)
			if err := decodeGob(payload, out); err != nil {
				return nil, fmt.Errorf("dist: rank %d outcome: %v", rank, err)
			}
			if out.Rank != rank {
				return nil, fmt.Errorf("dist: rank %d reported outcome for rank %d", rank, out.Rank)
			}
			return out, nil
		default:
			return nil, fmt.Errorf("dist: rank %d sent unexpected %v frame", rank, h.Type)
		}
	}
}

// reapWorkers waits for self-spawned workers, killing any that outlives
// the teardown grace period (a worker that neither finished nor noticed
// its closed control link is wedged).  Exit statuses are deliberately
// ignored: failures travel through outcomes and control-link errors.
func reapWorkers(cmds []*exec.Cmd) {
	for _, cmd := range cmds {
		if cmd == nil || cmd.Process == nil {
			continue
		}
		kill := time.AfterFunc(10*time.Second, func() { _ = cmd.Process.Kill() })
		_ = cmd.Wait()
		kill.Stop()
	}
}

// runSocket executes OpRun and OpRunMatrix on a socket fabric.
func runSocket(ctx context.Context, spec Spec, ck *ckptRun) (*Result, error) {
	j, err := socketOutcomes(ctx, spec, ck, jobOf(spec, ck))
	if err != nil {
		return nil, err
	}
	return &Result{
		Rank:        j.outcomes[0].RankVec,
		NNZ:         j.outcomes[0].NNZ,
		Comm:        j.comm,
		Iterations:  j.outcomes[0].Iters,
		RankSeconds: j.seconds,
		Wire:        &j.wire,
	}, nil
}

// buildFilteredSocket executes OpBuildFiltered on a socket fabric; the
// coordinator assembles the global matrix from the shipped blocks.
func buildFilteredSocket(ctx context.Context, spec Spec) (*BuildResult, error) {
	j, err := socketOutcomes(ctx, spec, nil, jobOf(spec, nil))
	if err != nil {
		return nil, err
	}
	states := make([]*rankState, spec.Procs)
	for r, o := range j.outcomes {
		if o.Block == nil {
			return nil, fmt.Errorf("dist: rank %d outcome carries no block", r)
		}
		if states[r], err = o.Block.state(spec.N, spec.Procs, r); err != nil {
			return nil, err
		}
	}
	return &BuildResult{
		Matrix: assemble(states, spec.N),
		Mass:   j.outcomes[0].Mass,
		NNZ:    j.outcomes[0].NNZ,
		Comm:   j.comm,
		Wire:   &j.wire,
	}, nil
}

// sortSocket executes OpSort on a socket fabric.
func sortSocket(ctx context.Context, spec Spec) (*SortResult, error) {
	j, err := socketOutcomes(ctx, spec, nil, jobOf(spec, nil))
	if err != nil {
		return nil, err
	}
	sorted := edge.NewList(spec.Edges.Len())
	for _, o := range j.outcomes {
		sorted.AppendList(edgesOf(o.EdgesU, o.EdgesV))
	}
	return &SortResult{Sorted: sorted, Comm: j.comm, Wire: &j.wire}, nil
}

// sortExternalSocket executes OpSortExternal on a socket fabric.  Each
// worker spills to its own private in-memory store (run files are
// rank-private temporaries, gone before the rank returns), so the
// coordinator-side Ext.FS is unused in this mode and Spill sums the
// per-rank metered records — equal to the goroutine mode's shared-meter
// totals, because the per-rank run traffic is disjoint.
func sortExternalSocket(ctx context.Context, spec Spec) (*ExtSortResult, error) {
	j, err := socketOutcomes(ctx, spec, nil, jobOf(spec, nil))
	if err != nil {
		return nil, err
	}
	p := spec.Procs
	sorted := edge.NewList(spec.Edges.Len())
	runsPerRank := make([]int, p)
	res := &ExtSortResult{RunsPerRank: runsPerRank, Wire: &j.wire}
	for r, o := range j.outcomes {
		sorted.AppendList(edgesOf(o.EdgesU, o.EdgesV))
		runsPerRank[r] = o.Runs
		res.Spill.BytesRead += o.Spill.BytesRead
		res.Spill.BytesWritten += o.Spill.BytesWritten
		res.Spill.Opens += o.Spill.Opens
		res.Spill.Creates += o.Spill.Creates
	}
	res.Sorted = sorted
	res.Comm = j.comm
	return res, nil
}
