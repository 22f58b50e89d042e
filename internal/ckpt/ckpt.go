// Package ckpt defines the on-storage checkpoint format of the
// distributed K3 runtime (DESIGN.md §10), the repo's one checkpoint
// format.
//
// A checkpoint is a sequence of *epochs*.  An epoch captures the global
// rank vector after a fixed number of completed K3 iterations as p
// block-local chunk files — one per rank, covering [lo, hi) of the
// global index space — plus a commit marker.  Every file is a single
// self-describing little-endian record with a trailing CRC32-IEEE
// checksum, written with a two-phase protocol: the payload goes to
// "<name>.tmp", is closed, and is then renamed into place, so a crash at
// any point leaves either no file or a complete checksummed one under
// the final name.  The commit marker is written last, after every chunk
// of the epoch has been renamed; an epoch without a valid commit, or
// whose chunks fail validation, is *torn* and is skipped by the loader
// in favor of the previous complete epoch — it is never silently loaded.
//
// The format is p-independent on the read side: the loader reassembles
// the global vector from whatever chunk decomposition the writing run
// used, so a run may resume with a different processor count.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/vfs"
)

// Record kinds.
const (
	// KindChunk is one rank's block-local slice of the rank vector.
	KindChunk = 1
	// KindCommit is the epoch commit marker (empty payload).
	KindCommit = 2
)

// Magic identifies an epoch checkpoint record.
var Magic = [4]byte{'P', 'R', 'C', '1'}

// Version is the current record version.
const Version = 1

// headerSize is the fixed-size record prefix: magic, version, kind,
// reserved byte, then six int64 fields, the damping bits and the payload
// count.
const headerSize = 4 + 2 + 1 + 1 + 6*8 + 8 + 8

// maxN bounds plausible vector lengths, matching sparse.MaxDim.
const maxN = 1 << 32

// ErrNoCheckpoint is returned by Latest when the prefix holds no
// complete epoch.
var ErrNoCheckpoint = errors.New("ckpt: no complete checkpoint epoch")

// Chunk is one record of the epoch format: a rank's slice Data of the
// global rank vector covering indices [Lo, Hi) after Epoch completed
// iterations.  A commit marker is a Chunk with empty Data and Lo==Hi==0.
type Chunk struct {
	Kind    int     // KindChunk or KindCommit
	Epoch   int64   // completed K3 iterations at this boundary
	N       int64   // global vector length
	Procs   int64   // ranks participating in the writing run
	Rank    int64   // owner rank in [0, Procs)
	Lo, Hi  int64   // half-open global index range
	Damping float64 // damping factor the iterations used
	Data    []float64
}

// Encode writes c as one framed record.
func Encode(w io.Writer, c *Chunk) error {
	if c.Kind == KindChunk && int64(len(c.Data)) != c.Hi-c.Lo {
		return fmt.Errorf("ckpt: chunk payload %d values, range [%d,%d)", len(c.Data), c.Lo, c.Hi)
	}
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)
	head := make([]byte, headerSize)
	copy(head, Magic[:])
	binary.LittleEndian.PutUint16(head[4:], Version)
	head[6] = byte(c.Kind)
	for i, v := range []int64{c.Epoch, c.N, c.Procs, c.Rank, c.Lo, c.Hi} {
		binary.LittleEndian.PutUint64(head[8+8*i:], uint64(v))
	}
	binary.LittleEndian.PutUint64(head[56:], math.Float64bits(c.Damping))
	binary.LittleEndian.PutUint64(head[64:], uint64(len(c.Data)))
	if _, err := mw.Write(head); err != nil {
		return err
	}
	buf := make([]byte, 8<<10)
	for off := 0; off < len(c.Data); {
		k := 0
		for k+8 <= len(buf) && off < len(c.Data) {
			binary.LittleEndian.PutUint64(buf[k:], math.Float64bits(c.Data[off]))
			k += 8
			off++
		}
		if _, err := mw.Write(buf[:k]); err != nil {
			return err
		}
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	_, err := w.Write(tail[:])
	return err
}

// Decode reads one record written by Encode, validating the header
// fields and the trailing checksum.  Errors are descriptive: a short
// read is reported as a truncation at a named boundary, never as a raw
// io.ErrUnexpectedEOF.
func Decode(r io.Reader) (*Chunk, error) {
	crc := crc32.NewIEEE()
	head := make([]byte, headerSize)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("ckpt: truncated record header: %w", err)
	}
	crc.Write(head)
	if [4]byte(head[:4]) != Magic {
		return nil, fmt.Errorf("ckpt: bad magic %q", head[:4])
	}
	if v := binary.LittleEndian.Uint16(head[4:]); v != Version {
		return nil, fmt.Errorf("ckpt: unsupported version %d", v)
	}
	c := &Chunk{Kind: int(head[6])}
	if c.Kind != KindChunk && c.Kind != KindCommit {
		return nil, fmt.Errorf("ckpt: unknown record kind %d", c.Kind)
	}
	if head[7] != 0 {
		return nil, fmt.Errorf("ckpt: nonzero reserved byte %d", head[7])
	}
	for i, p := range []*int64{&c.Epoch, &c.N, &c.Procs, &c.Rank, &c.Lo, &c.Hi} {
		*p = int64(binary.LittleEndian.Uint64(head[8+8*i:]))
	}
	c.Damping = math.Float64frombits(binary.LittleEndian.Uint64(head[56:]))
	count := binary.LittleEndian.Uint64(head[64:])
	if c.Epoch < 0 || c.N <= 0 || c.N > maxN || c.Procs <= 0 || c.Procs > c.N {
		return nil, fmt.Errorf("ckpt: implausible header epoch=%d n=%d p=%d", c.Epoch, c.N, c.Procs)
	}
	switch c.Kind {
	case KindChunk:
		if c.Rank < 0 || c.Rank >= c.Procs || c.Lo < 0 || c.Lo > c.Hi || c.Hi > c.N {
			return nil, fmt.Errorf("ckpt: implausible chunk rank=%d range=[%d,%d) n=%d", c.Rank, c.Lo, c.Hi, c.N)
		}
		if int64(count) != c.Hi-c.Lo {
			return nil, fmt.Errorf("ckpt: chunk count %d != range width %d", count, c.Hi-c.Lo)
		}
	case KindCommit:
		if count != 0 || c.Lo != 0 || c.Hi != 0 {
			return nil, fmt.Errorf("ckpt: commit marker with payload (count=%d range=[%d,%d))", count, c.Lo, c.Hi)
		}
	}
	// The payload is read incrementally so a fuzzed count cannot force a
	// huge up-front allocation: memory grows only with bytes actually
	// present in the stream.
	c.Data = make([]float64, 0, min(count, 8<<10))
	buf := make([]byte, 8<<10)
	for remaining := count; remaining > 0; {
		want := min(remaining*8, uint64(len(buf)))
		if _, err := io.ReadFull(r, buf[:want]); err != nil {
			return nil, fmt.Errorf("ckpt: truncated payload after %d of %d values: %w", len(c.Data), count, err)
		}
		crc.Write(buf[:want])
		for k := uint64(0); k < want; k += 8 {
			c.Data = append(c.Data, math.Float64frombits(binary.LittleEndian.Uint64(buf[k:])))
		}
		remaining -= want / 8
	}
	want := crc.Sum32()
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, fmt.Errorf("ckpt: truncated checksum: %w", err)
	}
	if stored := binary.LittleEndian.Uint32(tail[:]); stored != want {
		return nil, fmt.Errorf("ckpt: checksum mismatch: stored %#x, computed %#x", stored, want)
	}
	return c, nil
}

// ---------------------------------------------------------------------------
// File layout

// EpochDir is the directory-style name prefix of one epoch.
func EpochDir(prefix string, epoch int64) string {
	return fmt.Sprintf("%s/ep%08d", prefix, epoch)
}

// ChunkName is the file name of rank's chunk within an epoch.
func ChunkName(prefix string, epoch int64, rank int) string {
	return fmt.Sprintf("%s/chunk-r%03d", EpochDir(prefix, epoch), rank)
}

// CommitName is the file name of an epoch's commit marker.
func CommitName(prefix string, epoch int64) string {
	return EpochDir(prefix, epoch) + "/commit"
}

// writeRecord runs the two-phase write: encode to name+".tmp", close,
// rename into place.  The record is visible under name only if every
// byte (including the checksum) landed.
func writeRecord(fs vfs.FS, name string, c *Chunk) error {
	tmp := name + ".tmp"
	w, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if err := Encode(w, c); err != nil {
		w.Close()
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	return fs.Rename(tmp, name)
}

// WriteChunk writes rank c.Rank's chunk of epoch c.Epoch atomically.
func WriteChunk(fs vfs.FS, prefix string, c *Chunk) error {
	if c.Kind == 0 {
		c.Kind = KindChunk
	}
	return writeRecord(fs, ChunkName(prefix, c.Epoch, int(c.Rank)), c)
}

// WriteCommit marks an epoch complete.  It must be called only after
// every chunk of the epoch has been written and renamed into place.
func WriteCommit(fs vfs.FS, prefix string, epoch, n, procs int64, damping float64) error {
	c := &Chunk{Kind: KindCommit, Epoch: epoch, N: n, Procs: procs, Damping: damping}
	return writeRecord(fs, CommitName(prefix, epoch), c)
}

// RemoveEpoch deletes every file of an epoch, commit marker first so a
// crash mid-removal cannot leave a committed-but-incomplete epoch.
func RemoveEpoch(fs vfs.FS, prefix string, epoch int64) error {
	dir := EpochDir(prefix, epoch) + "/"
	names, err := fs.List()
	if err != nil {
		return err
	}
	// Commit first: once it is gone the epoch is formally torn and the
	// loader will never pick it, whatever happens to the chunks.
	commit := CommitName(prefix, epoch)
	for _, pass := range []func(string) bool{
		func(n string) bool { return n == commit },
		func(n string) bool { return strings.HasPrefix(n, dir) },
	} {
		for _, name := range names {
			if !pass(name) {
				continue
			}
			if err := fs.Remove(name); err != nil && !errors.Is(err, vfs.ErrNotExist) {
				return err
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Discovery and load

// Loaded is a reassembled checkpoint epoch.
type Loaded struct {
	// Epoch is the number of completed K3 iterations the vector reflects.
	Epoch int64
	// N is the global vector length; Rank has N values.
	N int64
	// Procs is the processor count of the run that wrote the epoch
	// (informational — resume does not require the same p).
	Procs int64
	// Damping is the damping factor the completed iterations used.
	Damping float64
	// Rank is the assembled global rank vector.
	Rank []float64
	// Torn counts newer epochs that were skipped because their commit or
	// chunks failed validation.
	Torn int
}

// Epochs lists the epoch numbers with a commit marker under prefix,
// ascending.  Commit presence does not imply validity; Latest performs
// the full validation.
func Epochs(fs vfs.FS, prefix string) ([]int64, error) {
	names, err := fs.List()
	if err != nil {
		return nil, err
	}
	var eps []int64
	for _, name := range names {
		rest, ok := strings.CutPrefix(name, prefix+"/ep")
		if !ok {
			continue
		}
		num, ok := strings.CutSuffix(rest, "/commit")
		if !ok {
			continue
		}
		e, err := strconv.ParseInt(num, 10, 64)
		if err != nil || e < 0 {
			continue
		}
		eps = append(eps, e)
	}
	sort.Slice(eps, func(i, j int) bool { return eps[i] < eps[j] })
	return eps, nil
}

// Latest loads the newest complete epoch under prefix: the highest
// committed epoch whose commit marker and all chunks decode, checksum
// and tile [0, N) exactly.  Torn epochs are counted and skipped, never
// loaded.  Returns ErrNoCheckpoint when nothing valid exists.
func Latest(fs vfs.FS, prefix string) (*Loaded, error) {
	eps, err := Epochs(fs, prefix)
	if err != nil {
		return nil, err
	}
	torn := 0
	for i := len(eps) - 1; i >= 0; i-- {
		l, err := loadEpoch(fs, prefix, eps[i])
		if err != nil {
			torn++
			continue
		}
		l.Torn = torn
		return l, nil
	}
	return nil, ErrNoCheckpoint
}

// Load loads one specific committed epoch, validating every chunk.
func Load(fs vfs.FS, prefix string, epoch int64) (*Loaded, error) {
	return loadEpoch(fs, prefix, epoch)
}

func loadEpoch(fs vfs.FS, prefix string, epoch int64) (*Loaded, error) {
	commit, err := readRecord(fs, CommitName(prefix, epoch))
	if err != nil {
		return nil, fmt.Errorf("ckpt: epoch %d commit: %w", epoch, err)
	}
	if commit.Kind != KindCommit || commit.Epoch != epoch {
		return nil, fmt.Errorf("ckpt: epoch %d commit marker is inconsistent (kind=%d epoch=%d)", epoch, commit.Kind, commit.Epoch)
	}
	l := &Loaded{Epoch: epoch, N: commit.N, Procs: commit.Procs, Damping: commit.Damping}
	// The vector is assembled only after the chunks have tiled [0, N):
	// the commit's N is a header value, and a torn epoch must not make
	// the loader allocate for it.
	var parts [][]float64
	var covered int64
	for r := int64(0); r < commit.Procs; r++ {
		c, err := readRecord(fs, ChunkName(prefix, epoch, int(r)))
		if err != nil {
			return nil, fmt.Errorf("ckpt: epoch %d rank %d: %w", epoch, r, err)
		}
		if c.Kind != KindChunk || c.Epoch != epoch || c.N != commit.N ||
			c.Procs != commit.Procs || c.Rank != r ||
			math.Float64bits(c.Damping) != math.Float64bits(commit.Damping) {
			return nil, fmt.Errorf("ckpt: epoch %d rank %d chunk disagrees with commit", epoch, r)
		}
		if c.Lo != covered {
			return nil, fmt.Errorf("ckpt: epoch %d rank %d covers [%d,%d), expected start %d", epoch, r, c.Lo, c.Hi, covered)
		}
		parts = append(parts, c.Data)
		covered = c.Hi
	}
	if covered != l.N {
		return nil, fmt.Errorf("ckpt: epoch %d chunks cover [0,%d) of %d", epoch, covered, l.N)
	}
	l.Rank = slices.Concat(parts...)
	return l, nil
}

func readRecord(fs vfs.FS, name string) (*Chunk, error) {
	r, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	c, err := Decode(r)
	if err != nil {
		return nil, err
	}
	// Trailing garbage after the checksum means the file is not a clean
	// record of this format.
	var one [1]byte
	if _, err := r.Read(one[:]); err != io.EOF {
		return nil, fmt.Errorf("ckpt: %s: trailing bytes after record", name)
	}
	return c, nil
}
