package dist

// The socket worker: one OS process executing one rank of a socket
// fabric.  JoinFabric performs the handshake of DESIGN.md §13 — join
// the coordinator, build the rank mesh, receive the job — then runs the
// SAME rank programs the goroutine runtime spawns (buildRank,
// iterateRank, sortRank, sortExternalRank) over a sockFabric, and
// reports a wireOutcome.  Because the programs, the collectives and the
// metering are shared, the socket mode's results and CommStats equal
// the goroutine mode's bit for bit by construction.
//
// Two ways into this file: the prrankd binary calls JoinFabric
// explicitly, and the init hook below turns ANY dist-importing binary
// into a worker when the coordinator's spawn environment is present —
// which is how the coordinator self-spawns workers out of its own
// executable (prbench, a test binary, a server) without per-binary
// cooperation.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/ckpt"
	"repro/internal/dist/fabric"
	"repro/internal/fastio"
	"repro/internal/vfs"
)

const (
	// envJoin carries "network|address" of the coordinator to join; its
	// presence switches the process into worker mode at init.
	envJoin = "PRRANKD_JOIN"
	// envFabricID carries the fabric id the coordinator expects.
	envFabricID = "PRRANKD_FABRIC"
)

// init is the self-spawn hook: a process launched with the coordinator's
// environment joins the fabric, serves one rank job, and exits without
// ever reaching the binary's own main (or a test binary's test driver).
func init() {
	spec := os.Getenv(envJoin)
	if spec == "" {
		return
	}
	network, addr, ok := strings.Cut(spec, "|")
	if !ok {
		fmt.Fprintf(os.Stderr, "prrankd: malformed %s=%q, want network|address\n", envJoin, spec)
		os.Exit(2)
	}
	if err := JoinFabric(context.Background(), network, addr, os.Getenv(envFabricID)); err != nil {
		fmt.Fprintln(os.Stderr, "prrankd:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// JoinFabric joins the socket fabric whose coordinator listens at addr
// ("unix" socket path or "tcp" host:port) as one worker rank: it
// handshakes, builds its share of the rank mesh, executes the one job
// the coordinator sends, reports the outcome, and returns.  fabricID
// must match the coordinator's (Spec.Socket.FabricID for an external
// fabric).  A rank-program failure is reported through the outcome, not
// the returned error, which covers only transport and protocol
// failures.  Cancelling ctx aborts the worker's fabric and unwinds the
// rank at its next cancellation point.
func JoinFabric(ctx context.Context, network, addr, fabricID string) error {
	if network == "" {
		network = "unix"
	}
	var meshStats, ctrlStats fabric.Stats

	// The worker's own mesh listener must exist before it announces its
	// address in the join; higher ranks may dial the moment the
	// coordinator forwards it.
	meshAddr := ""
	switch network {
	case "unix":
		dir, err := os.MkdirTemp("", "prrankd")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		meshAddr = filepath.Join(dir, "mesh.sock")
	case "tcp":
		meshAddr = "127.0.0.1:0"
	default:
		return fmt.Errorf("dist: unknown fabric network %q (want unix or tcp)", network)
	}
	meshLn, err := fabric.Listen(network, meshAddr)
	if err != nil {
		return err
	}
	defer meshLn.Close()
	meshAddr = meshLn.Addr().String()

	ctrl, err := fabric.Dial(network, addr, 0, &ctrlStats)
	if err != nil {
		return err
	}
	defer ctrl.Close()
	err = ctrl.WriteControl(fabric.FrameJoin, 0, 0, fabric.AppendJoin(nil, fabric.Join{
		FabricID: fabricID, MeshNetwork: network, MeshAddr: meshAddr,
	}))
	if err != nil {
		return err
	}
	h, payload, err := ctrl.ReadFrame()
	if err != nil {
		return err
	}
	switch h.Type {
	case fabric.FrameWelcome:
	case fabric.FrameReject:
		return fmt.Errorf("dist: fabric rejected worker: %s", payload)
	default:
		return fmt.Errorf("dist: unexpected %v frame in place of welcome", h.Type)
	}
	w, err := fabric.ParseWelcome(payload)
	if err != nil {
		return err
	}
	rank, p := w.Rank, w.Procs

	// Mesh construction: one connection per unordered rank pair — this
	// rank dials every lower rank and accepts one connection from every
	// higher rank, validating each hello against the fabric id.
	peers := make([]*fabric.Link, p)
	closeMesh := func() {
		for _, l := range peers {
			if l != nil {
				l.Close()
			}
		}
	}
	for s := 0; s < rank; s++ {
		ln, err := fabric.Dial(w.MeshNetwork, w.MeshAddrs[s], 0, &meshStats)
		if err != nil {
			closeMesh()
			return fmt.Errorf("dist: rank %d dialing rank %d: %w", rank, s, err)
		}
		peers[s] = ln
		err = ln.WriteControl(fabric.FrameMeshHello, rank, s, fabric.AppendMeshHello(nil, fabric.MeshHello{
			FabricID: fabricID, Src: rank, Dst: s,
		}))
		if err != nil {
			closeMesh()
			return err
		}
	}
	for need := p - 1 - rank; need > 0; need-- {
		conn, err := meshLn.Accept()
		if err != nil {
			closeMesh()
			return err
		}
		ln := fabric.NewLink(conn, 0, &meshStats)
		hh, hp, err := ln.ReadFrame()
		if err != nil || hh.Type != fabric.FrameMeshHello {
			ln.Close()
			closeMesh()
			return fmt.Errorf("dist: rank %d: bad mesh hello (%v)", rank, err)
		}
		mh, err := fabric.ParseMeshHello(hp)
		if err != nil || mh.FabricID != fabricID || mh.Dst != rank ||
			mh.Src <= rank || mh.Src >= p || peers[mh.Src] != nil {
			ln.Close()
			closeMesh()
			return fmt.Errorf("dist: rank %d: invalid mesh hello", rank)
		}
		peers[mh.Src] = ln
	}
	meshLn.Close()

	if err := ctrl.WriteControl(fabric.FrameReady, rank, rank, nil); err != nil {
		closeMesh()
		return err
	}
	h, payload, err = ctrl.ReadFrame()
	if err != nil {
		closeMesh()
		return err
	}
	if h.Type != fabric.FrameJob {
		closeMesh()
		return fmt.Errorf("dist: unexpected %v frame in place of job", h.Type)
	}
	job := new(wireJob)
	if err := decodeGob(payload, job); err != nil {
		closeMesh()
		return err
	}

	f := newSockFabric(rank, p, peers)
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The control reader: routes checkpoint acks to the rank program and
	// converts a lost coordinator into a local abort — which is also how
	// a cancelled or failed run reaches a worker that is not inside a
	// mesh collective (p = 1 especially).  It exits when the control
	// connection dies, coordinator- or worker-initiated.
	acks := make(chan string, 1)
	ctrlDone := make(chan struct{})
	//prlint:allow determinism -- control-link reader: routes acks and teardown only, joins via ctrlDone before JoinFabric returns
	go func() {
		defer close(ctrlDone)
		for {
			ah, ap, aerr := ctrl.ReadFrame()
			if aerr != nil {
				cancel()
				f.abort()
				return
			}
			if ah.Type == fabric.FrameCkptAck {
				select {
				case acks <- string(ap):
				case <-wctx.Done():
				}
			}
		}
	}()

	out := runWorkerRank(wctx, f, ctrl, rank, job, acks)
	if out.ErrKind != errKindNone {
		// Mirror spawnRanks' teardown: a failed rank brings the fabric
		// down so no peer waits for it.
		f.abort()
	}
	f.shutdown()
	out.Wire = wireCounters(meshStats.Snapshot())
	buf, err := encodeGob(out)
	if err != nil {
		return err
	}
	if err := ctrl.WriteControl(fabric.FrameOutcome, rank, rank, buf); err != nil {
		if out.ErrKind == errKindAborted {
			// The coordinator already tore the control link down — it
			// deliberately unwound this worker and is not waiting for the
			// outcome.  Exiting quietly keeps induced teardown noise out
			// of the inherited stderr.
			return nil
		}
		return err
	}
	ctrl.Close()
	<-ctrlDone
	return nil
}

// runWorkerRank executes the rank program for one job, mirroring the
// per-rank body of spawnRanks: the fabricDown panic becomes the aborted
// outcome, wall clock is reported, and every failure classifies into a
// wire error kind.
func runWorkerRank(ctx context.Context, f *sockFabric, ctrl *fabric.Link, rank int, job *wireJob, acks <-chan string) *wireOutcome {
	out := &wireOutcome{Rank: rank}
	c := newRankComm(f, rank)
	//prlint:allow determinism -- wall-clock feeds only the reported per-rank timing, never the kernel results
	start := time.Now()
	err := func() (err error) {
		defer func() {
			if e := recover(); e != nil {
				if _, down := e.(fabricDown); down {
					err = errRunAborted
					return
				}
				panic(e)
			}
		}()
		return workerProgram(ctx, c, ctrl, rank, job, acks, out)
	}()
	out.ErrKind, out.ErrMsg = errToKind(err)
	out.Comm = c.st
	//prlint:allow determinism -- wall-clock feeds only the reported per-rank timing, never the kernel results
	out.Seconds = time.Since(start).Seconds()
	return out
}

// workerProgram dispatches the shared rank program of the job's op and
// records its results on out.
func workerProgram(ctx context.Context, c *rankComm, ctrl *fabric.Link, rank int, job *wireJob, acks <-chan string, out *wireOutcome) error {
	l := edgesOf(job.EdgesU, job.EdgesV)
	switch Op(job.Op) {
	case OpSort:
		bucket := sortRank(c, l, job.Workers)
		out.EdgesU, out.EdgesV = bucket.U, bucket.V
		return nil

	case OpSortExternal:
		codec, err := fastio.CodecByName(job.Ext.CodecName)
		if err != nil {
			return err
		}
		// Each worker spills to its own private in-memory store; the run
		// files are rank-private temporaries removed before the rank
		// returns, so only the metered counters are observable.
		fs := vfs.NewMetered(vfs.NewMem())
		bucket, runs, err := sortExternalRank(c, l, fs, job.Ext.TmpPrefix, codec, job.Ext.RunEdges)
		out.Runs = runs
		out.Spill = fs.Stats()
		if err != nil {
			return err
		}
		out.EdgesU, out.EdgesV = bucket.U, bucket.V
		return nil

	case OpBuildFiltered:
		st, mass, nnz := buildRank(c, l, job.N)
		out.Block = stateToWire(st)
		out.Mass, out.NNZ = mass, nnz
		return nil

	case OpRun, OpRunMatrix:
		opt := job.Opt.options()
		if job.ReportProgress && rank == 0 {
			// Relay rank 0's per-iteration progress to the coordinator,
			// which invokes the caller's (already resume-offset) hook.  A
			// failed relay is ignored here: a dead control link is about
			// to abort the run through the control reader anyway.
			opt.Progress = func(it int) {
				_ = ctrl.WriteControl(fabric.FrameProgress, rank, rank,
					binary.LittleEndian.AppendUint64(nil, uint64(it)))
			}
		}
		ck := workerCkpt(ctx, job, ctrl, rank, acks)
		var st *rankState
		n := job.N
		if Op(job.Op) == OpRunMatrix {
			a, err := job.Matrix.csr()
			if err != nil {
				return err
			}
			n = a.N
			st = matrixRank(a, job.Procs, rank)
			out.NNZ = a.NNZ()
		} else {
			var mass float64
			st, mass, out.NNZ = buildRank(c, l, n)
			out.Mass = mass
		}
		rankVec, iters, err := iterateRank(ctx, c, st, n, opt, job.Workers, ck)
		if err != nil {
			return err
		}
		out.Iters = iters
		if rank == 0 {
			out.RankVec = rankVec
		}
		return nil
	}
	return fmt.Errorf("dist: unknown op %d in job", job.Op)
}

// workerCkpt builds the worker-side checkpoint/fault runtime: the same
// ckptRun that drives afterRank everywhere, with storage relayed to the
// coordinator — chunk and commit frames answered by acks — and
// FaultPlan.Hard wired to a genuine process death.
func workerCkpt(ctx context.Context, job *wireJob, ctrl *fabric.Link, rank int, acks <-chan string) *ckptRun {
	if !job.Ckpt.On && job.Fault == nil {
		return nil
	}
	relay := func(t fabric.FrameType, payload []byte) error {
		if err := ctrl.WriteControl(t, rank, rank, payload); err != nil {
			return err
		}
		select {
		case msg := <-acks:
			if msg != "" {
				return errors.New(msg)
			}
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	ck := &ckptRun{
		spec:      CheckpointSpec{Every: job.Ckpt.Every},
		fault:     job.Fault,
		n:         job.Ckpt.N,
		procs:     int64(job.Procs),
		damping:   job.Ckpt.Damping,
		base:      job.Ckpt.Base,
		relay:     job.Ckpt.On,
		committed: func(int64) {}, // the coordinator records commits as it writes them
		hardExit:  func() { os.Exit(3) },
	}
	if job.Ckpt.On {
		ck.putChunk = func(chunk *ckpt.Chunk) error {
			var buf bytes.Buffer
			if err := ckpt.Encode(&buf, chunk); err != nil {
				return err
			}
			return relay(fabric.FrameCkptChunk, buf.Bytes())
		}
		ck.putCommit = func(g int64) error {
			return relay(fabric.FrameCkptCommit, binary.LittleEndian.AppendUint64(nil, uint64(g)))
		}
	}
	return ck
}
