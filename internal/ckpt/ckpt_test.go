package ckpt

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/vfs"
)

func testChunk(epoch int64, n, p, rank int) *Chunk {
	lo, hi := int64(rank)*int64(n)/int64(p), int64(rank+1)*int64(n)/int64(p)
	data := make([]float64, hi-lo)
	for i := range data {
		data[i] = float64(lo+int64(i)) * 0.25
	}
	return &Chunk{
		Kind: KindChunk, Epoch: epoch, N: int64(n), Procs: int64(p),
		Rank: int64(rank), Lo: lo, Hi: hi, Damping: 0.85, Data: data,
	}
}

func writeEpoch(t *testing.T, fs vfs.FS, prefix string, epoch int64, n, p int) {
	t.Helper()
	for r := 0; r < p; r++ {
		if err := WriteChunk(fs, prefix, testChunk(epoch, n, p, r)); err != nil {
			t.Fatalf("epoch %d rank %d: %v", epoch, r, err)
		}
	}
	if err := WriteCommit(fs, prefix, epoch, int64(n), int64(p), 0.85); err != nil {
		t.Fatalf("commit epoch %d: %v", epoch, err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, c := range []*Chunk{
		testChunk(5, 17, 3, 0),
		testChunk(5, 17, 3, 2),
		testChunk(0, 1, 1, 0),
		{Kind: KindCommit, Epoch: 10, N: 100, Procs: 4, Damping: 0.9},
	} {
		var buf bytes.Buffer
		if err := Encode(&buf, c); err != nil {
			t.Fatal(err)
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Kind != c.Kind || got.Epoch != c.Epoch || got.N != c.N ||
			got.Procs != c.Procs || got.Rank != c.Rank || got.Lo != c.Lo ||
			got.Hi != c.Hi || got.Damping != c.Damping {
			t.Fatalf("header round trip: %+v -> %+v", c, got)
		}
		if len(got.Data) != len(c.Data) {
			t.Fatalf("payload length %d -> %d", len(c.Data), len(got.Data))
		}
		for i := range c.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(c.Data[i]) {
				t.Fatalf("payload[%d] not bit-identical", i)
			}
		}
	}
}

func TestDecodeTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, testChunk(3, 64, 2, 1)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		_, err := Decode(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("decode of %d/%d bytes succeeded", cut, len(full))
		}
		if msg := err.Error(); !strings.Contains(msg, "ckpt:") {
			t.Fatalf("cut %d: undescriptive error %q", cut, msg)
		}
	}
}

func TestDecodeCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, testChunk(3, 32, 1, 0)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, pos := range []int{0, 5, 6, 7, 9, 20, headerSize + 3, len(full) - 2} {
		mut := append([]byte(nil), full...)
		mut[pos] ^= 0x41
		if _, err := Decode(bytes.NewReader(mut)); err == nil {
			t.Errorf("flip at byte %d not detected", pos)
		}
	}
}

func TestDecodeRejectsHugeCountWithoutAllocating(t *testing.T) {
	// A header claiming 2^40 values backed by 8 bytes of payload must
	// fail on truncation, not attempt a 8 TiB allocation.
	c := testChunk(0, 16, 1, 0)
	var buf bytes.Buffer
	if err := Encode(&buf, c); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()[:headerSize+8]
	if _, err := Decode(bytes.NewReader(b)); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

// TestTornEpochDoesNotAllocateForHeaderN pins that a commit's N is not
// trusted before the chunks cover it: a ~150-byte torn epoch claiming
// N = 2^24 (a 128 MiB vector) is skipped without allocating for N.
func TestTornEpochDoesNotAllocateForHeaderN(t *testing.T) {
	fs := vfs.NewMem()
	writeEpoch(t, fs, "ck", 1, 8, 1)
	const n = 1 << 24
	c := &Chunk{Kind: KindChunk, Epoch: 2, N: n, Procs: 1, Hi: 1, Damping: 0.85, Data: []float64{1}}
	if err := WriteChunk(fs, "ck", c); err != nil {
		t.Fatal(err)
	}
	if err := WriteCommit(fs, "ck", 2, n, 1, 0.85); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l, err := Latest(fs, "ck")
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if l.Epoch != 1 || l.Torn != 1 {
		t.Fatalf("loaded epoch %d with %d torn, want epoch 1 skipping 1 torn", l.Epoch, l.Torn)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("loading a torn epoch allocated %d bytes", alloc)
	}
}

func TestWriteIsAtomic(t *testing.T) {
	fs := vfs.NewMem()
	if err := WriteChunk(fs, "ck", testChunk(2, 8, 1, 0)); err != nil {
		t.Fatal(err)
	}
	names, _ := fs.List()
	for _, n := range names {
		if strings.HasSuffix(n, ".tmp") {
			t.Errorf("temp file %q left behind", n)
		}
	}
	if _, err := fs.Open(ChunkName("ck", 2, 0)); err != nil {
		t.Fatalf("final name missing: %v", err)
	}
}

func TestLatestPicksNewestCompleteEpoch(t *testing.T) {
	fs := vfs.NewMem()
	if _, err := Latest(fs, "ck"); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty store: %v", err)
	}
	writeEpoch(t, fs, "ck", 4, 40, 3)
	writeEpoch(t, fs, "ck", 8, 40, 3)
	l, err := Latest(fs, "ck")
	if err != nil {
		t.Fatal(err)
	}
	if l.Epoch != 8 || l.N != 40 || l.Procs != 3 || l.Torn != 0 {
		t.Fatalf("loaded %+v", l)
	}
	for i, v := range l.Rank {
		if v != float64(i)*0.25 {
			t.Fatalf("rank[%d] = %v", i, v)
		}
	}
}

func TestLatestSkipsTornEpoch(t *testing.T) {
	tears := map[string]func(fs vfs.FS){
		"missing-chunk": func(fs vfs.FS) {
			if err := fs.Remove(ChunkName("ck", 8, 1)); err != nil {
				panic(err)
			}
		},
		"corrupt-chunk": func(fs vfs.FS) {
			name := ChunkName("ck", 8, 2)
			r, _ := fs.Open(name)
			b, _ := io.ReadAll(r)
			r.Close()
			b[len(b)-1] ^= 0xFF
			w, _ := fs.Create(name)
			w.Write(b)
			w.Close()
		},
		"truncated-chunk": func(fs vfs.FS) {
			name := ChunkName("ck", 8, 0)
			r, _ := fs.Open(name)
			b, _ := io.ReadAll(r)
			r.Close()
			w, _ := fs.Create(name)
			w.Write(b[:len(b)/2])
			w.Close()
		},
	}
	for _, name := range slices.Sorted(maps.Keys(tears)) {
		tear := tears[name]
		t.Run(name, func(t *testing.T) {
			fs := vfs.NewMem()
			writeEpoch(t, fs, "ck", 4, 40, 3)
			writeEpoch(t, fs, "ck", 8, 40, 3)
			tear(fs)
			l, err := Latest(fs, "ck")
			if err != nil {
				t.Fatal(err)
			}
			if l.Epoch != 4 {
				t.Fatalf("loaded epoch %d, want fallback to 4", l.Epoch)
			}
			if l.Torn != 1 {
				t.Fatalf("torn count %d, want 1", l.Torn)
			}
		})
	}
}

func TestUncommittedEpochInvisible(t *testing.T) {
	fs := vfs.NewMem()
	writeEpoch(t, fs, "ck", 4, 40, 3)
	// Epoch 8: all chunks present but no commit — must not be loaded.
	for r := 0; r < 3; r++ {
		if err := WriteChunk(fs, "ck", testChunk(8, 40, 3, r)); err != nil {
			t.Fatal(err)
		}
	}
	l, err := Latest(fs, "ck")
	if err != nil {
		t.Fatal(err)
	}
	if l.Epoch != 4 {
		t.Fatalf("uncommitted epoch loaded (got epoch %d)", l.Epoch)
	}
}

func TestTornWriteViaFaultyFS(t *testing.T) {
	// A partial write that dies mid-chunk never produces a visible chunk
	// file: the temp file holds the torn bytes and the rename never runs.
	mem := vfs.NewMem()
	writeEpoch(t, mem, "ck", 4, 40, 2)
	// Budget covers rank 0's chunk plus a fragment of rank 1's, so the
	// fault fires mid-write of the second chunk.
	chunkBytes, err := mem.Size(ChunkName("ck", 4, 0))
	if err != nil {
		t.Fatal(err)
	}
	fs := vfs.NewFaulty(mem, chunkBytes+chunkBytes/2).PartialWrites()
	var wrote int
	for r := 0; r < 2; r++ {
		if err := WriteChunk(fs, "ck", testChunk(8, 40, 2, r)); err != nil {
			break
		}
		wrote++
	}
	if wrote == 2 {
		t.Fatal("fault did not fire; budget too large")
	}
	l, err := Latest(mem, "ck")
	if err != nil {
		t.Fatal(err)
	}
	if l.Epoch != 4 {
		t.Fatalf("torn epoch 8 became visible (loaded %d)", l.Epoch)
	}
}

func TestRenameFailureLeavesPreviousEpoch(t *testing.T) {
	mem := vfs.NewMem()
	writeEpoch(t, mem, "ck", 4, 40, 2)
	fs := vfs.NewFaulty(mem, 1<<30).FailRenamesAfter(1)
	// First rename (chunk 0) succeeds, second (chunk 1) fails.
	if err := WriteChunk(fs, "ck", testChunk(8, 40, 2, 0)); err != nil {
		t.Fatal(err)
	}
	if err := WriteChunk(fs, "ck", testChunk(8, 40, 2, 1)); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("rename fault not surfaced: %v", err)
	}
	l, err := Latest(mem, "ck")
	if err != nil {
		t.Fatal(err)
	}
	if l.Epoch != 4 {
		t.Fatalf("incomplete epoch became visible (loaded %d)", l.Epoch)
	}
}

func TestDifferentProcsOnLoad(t *testing.T) {
	// An epoch written with p=5 reassembles into the same global vector
	// regardless of the reader's own processor count.
	fs := vfs.NewMem()
	writeEpoch(t, fs, "ck", 6, 43, 5)
	l, err := Latest(fs, "ck")
	if err != nil {
		t.Fatal(err)
	}
	if l.Procs != 5 || l.N != 43 {
		t.Fatalf("loaded %+v", l)
	}
	for i, v := range l.Rank {
		if v != float64(i)*0.25 {
			t.Fatalf("rank[%d] = %v", i, v)
		}
	}
}

func TestRemoveEpoch(t *testing.T) {
	fs := vfs.NewMem()
	writeEpoch(t, fs, "ck", 4, 20, 2)
	writeEpoch(t, fs, "ck", 8, 20, 2)
	if err := RemoveEpoch(fs, "ck", 4); err != nil {
		t.Fatal(err)
	}
	names, _ := fs.List()
	for _, n := range names {
		if strings.Contains(n, "ep00000004") {
			t.Errorf("epoch 4 file %q survived removal", n)
		}
	}
	if l, err := Latest(fs, "ck"); err != nil || l.Epoch != 8 {
		t.Fatalf("epoch 8 lost: %v %v", l, err)
	}
}

func TestEpochsListing(t *testing.T) {
	fs := vfs.NewMem()
	for _, e := range []int64{12, 4, 8} {
		writeEpoch(t, fs, "ck", e, 10, 1)
	}
	// A foreign file and an uncommitted epoch must not appear.
	w, _ := fs.Create("ck/ep00000099/chunk-r000")
	w.Close()
	w, _ = fs.Create("other/ep00000001/commit")
	w.Close()
	eps, err := Epochs(fs, "ck")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(eps) != "[4 8 12]" {
		t.Fatalf("epochs = %v", eps)
	}
}

func TestChunkDisagreeingWithCommitRejected(t *testing.T) {
	fs := vfs.NewMem()
	for r := 0; r < 2; r++ {
		if err := WriteChunk(fs, "ck", testChunk(8, 40, 2, r)); err != nil {
			t.Fatal(err)
		}
	}
	// Commit claims a different damping than the chunks carry.
	if err := WriteCommit(fs, "ck", 8, 40, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(fs, "ck", 8); err == nil {
		t.Fatal("damping mismatch between commit and chunks accepted")
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	fs := vfs.NewMem()
	writeEpoch(t, fs, "ck", 4, 10, 1)
	name := ChunkName("ck", 4, 0)
	r, _ := fs.Open(name)
	b, _ := io.ReadAll(r)
	r.Close()
	w, _ := fs.Create(name)
	w.Write(append(b, 0xEE))
	w.Close()
	if _, err := Load(fs, "ck", 4); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}
