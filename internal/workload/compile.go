package workload

// Program compilation. A workload's reference stream is a deterministic
// pure function of (spec, seed, task label) — it never consults machine or
// kernel state (see program.go) — so the whole stream can be lowered once
// into pre-planned ops (fused walker runs, pre-resolved service points,
// batched data references) and replayed any number of times. Replay
// eliminates the per-instruction probability draws, Zipf lookups and
// walker stepping that dominate the generator's cost, and a process-wide
// resultcache.Cache, bounded by image bytes, amortizes the one-time
// compile across gang members, fast/baseline comparison runs, and bench
// iterations — all of which execute the same (spec, seed) stream by
// construction.
//
// Compile records through the same recorder as a decode-ahead stream
// (stream.go), into chunks that start at firstChunkOps and double up to
// maxCompileChunkOps, and the image keeps those chunks as they are: no
// flat copy, and no garbage generations of a growing slice. A replay
// reads them through the windowed cursor decode-ahead streams use, at
// stream op positions, so it can seek anywhere. Whether a stream compiles
// is decided from its spec alone, before anything is generated: a stream
// beyond the compile budget is refused at once, and NewPlanned runs it
// decode-ahead instead, through the same kernel replay loop.
//
// The compiler is seed-pure: it consumes randomness only through the
// generator it records, so a compiled replay is bit-identical to the
// reference interpreter by construction, and memoizing images by (spec,
// seed) can never change simulation results.

import (
	"fmt"
	"slices"
	"unsafe"

	"tapeworm/internal/kernel"
	"tapeworm/internal/mem"
	"tapeworm/internal/resultcache"
)

// maxCompiledInstr bounds the user instructions (Spec.UserInstructions,
// the whole fork tree's) of a stream that compiles. Images measure 0.74
// (kenbus) to 0.92 (eqntott) ops per user instruction, so the largest
// admissible image is about 4.84M ops, 39 MB. At the standard scale 100,
// xlisp, eqntott, mpeg_play and jpeg_play exceed it and run decode-ahead;
// from scale 400 up, all eight paper streams compile. mpeg_play must
// compile at scale 125 (5,077,264 user instructions): interval sampling
// of its sweeps needs the image.
const maxCompiledInstr = 5 << 20

// ErrStreamTooLarge reports a workload whose stream exceeds the compile
// budget; run it decode-ahead (New) instead.
var ErrStreamTooLarge = fmt.Errorf("workload: stream exceeds the %d-user-instruction compile budget", maxCompiledInstr)

// compilable validates spec and decides, from the spec alone, whether its
// stream fits the compile budget, so a refusal costs nothing: no
// generator runs and no cache entry is made.
func compilable(spec Spec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if spec.UserInstructions() > maxCompiledInstr {
		return ErrStreamTooLarge
	}
	return nil
}

// Compiles reports whether spec's stream fits the compile budget, decided
// from the spec alone. A stream that does not runs decode-ahead, and has
// no image for interval replay to checkpoint.
func Compiles(spec Spec) bool { return compilable(spec) == nil }

// image is the compiled form of one task's program: its op stream, kept
// in the chunks the recorder filled, plus the images of the children it
// forks, in fork order. Images are immutable after compilation and shared
// by any number of concurrent replays.
type image struct {
	chunks   [][]kernel.CompiledOp // in stream order; the last holds OpExit
	starts   []int                 // stream index of each chunk's first op
	children []*image
}

// len returns the number of ops in the image's own stream.
func (img *image) len() int {
	last := len(img.chunks) - 1
	return img.starts[last] + len(img.chunks[last])
}

// Compiled replays an image as a kernel.Program. The zero cursor starts at
// the beginning of the stream; each task (including every forked child)
// gets its own Compiled over the shared immutable image.
type Compiled struct {
	cursor // over one of img's chunks
	img    *image
	path   []int32 // fork-op args from the root image to img (never mutated)
}

func newCompiled(img *image, path []int32, pos int) *Compiled {
	return &Compiled{cursor: cursor{pos: pos}, img: img, path: path}
}

// locate moves the window to the chunk that holds the cursor, or to the
// last chunk when the cursor is past the stream's end.
func (c *Compiled) locate() {
	if uint(c.pos-c.base) >= uint(len(c.ops)) {
		c.seekWindow()
	}
}

// seekWindow is locate's search over the image's chunks.
func (c *Compiled) seekWindow() {
	i, found := slices.BinarySearch(c.img.starts, c.pos)
	if !found {
		i--
	}
	c.ops, c.base = c.img.chunks[i], c.img.starts[i]
}

// OpPos implements kernel.CompiledProgram.
func (c *Compiled) OpPos() (int, bool) {
	c.locate()
	return c.pos, c.runOff == 0
}

// Cursor implements kernel.CursorProgram: it names this replay's position
// in the fork tree (the chain of fork-op args that produced its image,
// plus the stream op index) so an identical replay can be rebuilt later
// from the same (spec, seed) with NewPlannedAt. Mid-run-op positions are
// not resumable and report ok == false; the kernel only captures at op
// boundaries, where OpPos's aligned flag is true.
func (c *Compiled) Cursor() (kernel.ProgramCursor, bool) {
	if c.runOff != 0 {
		return kernel.ProgramCursor{}, false
	}
	path := make([]int32, len(c.path))
	copy(path, c.path)
	return kernel.ProgramCursor{Path: path, Pos: c.pos}, true
}

// Next implements kernel.Program.
func (c *Compiled) Next() kernel.Event {
	base, n, ev := c.NextRun(1)
	if n > 0 {
		return kernel.Event{Kind: kernel.EvRef, Ref: mem.Ref{VA: base, Kind: mem.IFetch}}
	}
	return ev
}

// NextRun implements kernel.BatchProgram by replaying the compiled ops.
// The flat event stream is byte-identical to the interpreter's at any max:
// run ops split but never merge, so boundaries the interpreter would emit
// are preserved.
func (c *Compiled) NextRun(max int) (mem.VAddr, int, kernel.Event) {
	c.locate()
	if c.pos-c.base >= len(c.ops) {
		return 0, 0, kernel.Event{Kind: kernel.EvExit}
	}
	op := c.op()
	switch op.Kind {
	case kernel.OpRun:
		base, n := c.run(op, max)
		return base, n, kernel.Event{}
	case kernel.OpData:
		c.pos++
		return 0, 0, kernel.Event{Kind: kernel.EvRef, Ref: mem.Ref{VA: op.VA, Kind: op.Ref}}
	case kernel.OpSyscall:
		c.pos++
		return 0, 0, kernel.Event{Kind: kernel.EvSyscall, Service: kernel.ServiceID(op.Arg())}
	case kernel.OpFork:
		c.pos++
		childPath := make([]int32, len(c.path)+1)
		copy(childPath, c.path)
		childPath[len(c.path)] = op.Arg()
		return 0, 0, kernel.Event{
			Kind:      kernel.EvFork,
			Child:     newCompiled(c.img.children[op.Arg()], childPath, 0),
			ShareText: op.N != 0,
		}
	default: // OpExit is sticky, like the interpreter's exit.
		return 0, 0, kernel.Event{Kind: kernel.EvExit}
	}
}

// compileImage records gen's full stream into an image of chunks that
// start at first ops and double up to max, compiling the children it
// forks, in fork order, as each chunk hands them over. The last chunk is
// cloned down to the ops it holds: doubling leaves it up to half empty,
// which in a fork tree of short children is most of the image.
func compileImage(gen *program, first, max int) *image {
	r := recorder{gen: gen}
	img := &image{}
	for size, n := first, 0; !r.exited; size = min(2*size, max) {
		c := &chunk{ops: make([]kernel.CompiledOp, 0, size)}
		r.fill(c)
		if r.exited && len(c.ops) < cap(c.ops) {
			c.ops = slices.Clone(c.ops)
		}
		img.chunks = append(img.chunks, c.ops)
		img.starts = append(img.starts, n)
		n += len(c.ops)
		for _, g := range c.children {
			img.children = append(img.children, compileImage(g, first, max))
		}
	}
	return img
}

// Compile lowers spec's reference stream into a fresh compiled program,
// bypassing the cache. It returns ErrStreamTooLarge, having generated
// nothing, when the stream exceeds the compile budget.
func Compile(spec Spec, seed uint64) (*Compiled, error) {
	if err := compilable(spec); err != nil {
		return nil, err
	}
	return newCompiled(compileImage(newGenerator(spec, seed), firstChunkOps, maxCompileChunkOps), nil, 0), nil
}

// --- Process-wide image cache ---

// opBytes is the in-memory size of one compiled op.
const opBytes = int64(unsafe.Sizeof(kernel.CompiledOp{}))

// maxCachedImageBytes bounds the compile cache by image bytes: 16M ops,
// about 134 MB, room for three images at the compile budget and for the
// whole paper workload set at bench scales (Table 6 alone revisits all
// eight streams). Sweeps revisit the same few (spec, seed) pairs
// thousands of times.
const maxCachedImageBytes = 16 << 20 * opBytes

type cacheKey struct {
	spec Spec
	seed uint64
}

// images memoizes compileImage by (spec, seed), for a spec that
// compilable accepted, single-flight per key: concurrent requests compile
// once and share the immutable image, and distinct keys compile in
// parallel.
var images = resultcache.NewCache[cacheKey](maxCachedImageBytes, (*image).bytes)

// ImageCacheStats reports process-wide compiled-image cache activity:
// hits is the number of requests served by an existing entry (including
// one still compiling), compiles the number of compilations run. A stream
// refused for the compile budget never reaches the cache and counts as
// neither.
func ImageCacheStats() (hits, compiles uint64) {
	st := images.Stats()
	return st.Hits, st.Misses
}

// cachedImage returns the shared compiled image of (spec, seed).
func cachedImage(spec Spec, seed uint64) *image {
	// The build cannot fail: compilable has already accepted spec.
	img, _ := images.Get(cacheKey{spec: spec, seed: seed}, func() (*image, error) {
		return compileImage(newGenerator(spec, seed), firstChunkOps, maxCompileChunkOps), nil
	})
	return img
}

// bytes is the in-memory size of the image's chunks, children included.
func (img *image) bytes() int64 {
	var n int64
	for _, ops := range img.chunks {
		n += int64(cap(ops)) * opBytes
	}
	for _, c := range img.children {
		n += c.bytes()
	}
	return n
}

// NewPlanned returns the fastest available Program for (spec, seed): a
// replay of the cached compiled stream when it fits the compile budget,
// else a decode-ahead stream (New). Both replay through the kernel's
// compiled loop, and the emitted event stream is identical either way.
func NewPlanned(spec Spec, seed uint64) (kernel.Program, error) {
	switch err := compilable(spec); err {
	case nil:
		return newCompiled(cachedImage(spec, seed), nil, 0), nil
	case ErrStreamTooLarge:
		return New(spec, seed)
	default:
		return nil, err
	}
}

// NewPlannedAt rebuilds a compiled replay of (spec, seed) positioned at a
// cursor previously reported by Compiled.Cursor — the resume half of the
// kernel's mid-run checkpoint protocol. Cursors exist only for compiled
// replays, so a stream too large to compile is an error here, not a
// decode-ahead fallback: a decode-ahead stream cannot seek.
func NewPlannedAt(spec Spec, seed uint64, cur kernel.ProgramCursor) (kernel.Program, error) {
	if err := compilable(spec); err != nil {
		return nil, err
	}
	node := cachedImage(spec, seed)
	for i, arg := range cur.Path {
		if arg < 0 || int(arg) >= len(node.children) {
			return nil, fmt.Errorf("workload: cursor path %v invalid at step %d for %s/seed %#x",
				cur.Path, i, spec.Name, seed)
		}
		node = node.children[arg]
	}
	if cur.Pos < 0 || cur.Pos > node.len() {
		return nil, fmt.Errorf("workload: cursor op %d out of range [0,%d] for %s/seed %#x",
			cur.Pos, node.len(), spec.Name, seed)
	}
	path := make([]int32, len(cur.Path))
	copy(path, cur.Path)
	return newCompiled(node, path, cur.Pos), nil
}

// OpTree is a read-only view over one compiled task stream and the
// streams of the children it forks, for offline analyses (phase
// detection) that want the pre-planned ops without replaying them.
type OpTree struct {
	img *image
}

// Chunks returns the node's op stream as the chunks it was recorded in,
// in stream order. The slices are shared and immutable.
func (t OpTree) Chunks() [][]kernel.CompiledOp { return t.img.chunks }

// NumChildren returns how many child streams this node forks.
func (t OpTree) NumChildren() int { return len(t.img.children) }

// Child returns the stream forked by the fork op whose Arg is i.
func (t OpTree) Child(i int) OpTree { return OpTree{img: t.img.children[i]} }

// PlannedOps exposes the cached compiled fork tree of (spec, seed).
// Returns ErrStreamTooLarge (wrapped by nothing), having generated
// nothing, when the stream exceeds the compile budget, exactly as
// NewPlanned's fallback condition.
func PlannedOps(spec Spec, seed uint64) (OpTree, error) {
	if err := compilable(spec); err != nil {
		return OpTree{}, err
	}
	return OpTree{img: cachedImage(spec, seed)}, nil
}
