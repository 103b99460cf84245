package workload

// Op streams: the one lowering of a generator's events into CompiledOps,
// the windowed cursor that replays ops, and decode-ahead streams.
//
// Every op stream is read one window at a time, each window one chunk the
// recorder filled: a compiled image keeps all of its chunks (compile.go),
// and a decode-ahead stream holds a few at once. The cursor they share
// counts positions in stream ops from the stream's first op, whichever
// chunk holds them, so a position means the same op at any chunk size.
//
// A decode-ahead stream is what New returns. Past its first chunk, its
// generator runs on a producer goroutine of its own, lowering the stream
// into chunks of ops that it hands to the consumer over a small ring of
// recycled chunks. The consumer implements kernel.CompiledProgram, so the
// kernel replays every stream through its compiled loop whether or not
// the stream fits the compile budget, and the generator's cost moves to a
// second core.
//
// Decode-ahead is byte-identical to the interpreter by construction: the
// producer records the generator's own step(CompiledRunCap) stream
// through the same recorder as Compile, one op per call, so ops never
// merge and an op never straddles two chunks. A fork's child generator
// travels in the chunk that holds its OpFork and runs as a decode-ahead
// stream of its own, started when the child is first driven.

import (
	"runtime"

	"tapeworm/internal/kernel"
	"tapeworm/internal/mem"
)

const (
	// firstChunkOps is the op capacity of a stream's first chunk. Each
	// later chunk doubles it up to a cap, so the short children of a
	// fork tree allocate a few kilobytes, not a full ring.
	firstChunkOps = 256
	// maxRingChunkOps caps the chunks of a decode-ahead ring.
	maxRingChunkOps = 8 << 10
	// maxCompileChunkOps caps the chunks of a compiled image.
	maxCompileChunkOps = 16 << 10
	// ringChunks is the number of chunks a decode-ahead stream cycles
	// between its producer and its consumer: while the consumer reads
	// one, the producer fills or queues the others, and no more.
	ringChunks = 4
)

// chunk is one window of a lowered op stream, plus the generators that
// its OpFork ops start, in fork order: the op with Arg firstChild+i forks
// children[i].
type chunk struct {
	ops        []kernel.CompiledOp
	children   []*program
	firstChild int32
}

// recorder lowers a generator's stream into CompiledOps, one op per
// step(CompiledRunCap) call. It is the only lowering to ops; both Compile
// and decode-ahead streams record through it.
type recorder struct {
	gen    *program
	forks  int32 // OpFork ops lowered so far: the next one's Arg
	exited bool  // OpExit lowered; the stream is complete
}

// fill lowers the stream into c until c.ops reaches its capacity or the
// stream exits, replacing c's previous contents. Each op is written in
// place in c.ops, straight from step's results and the generator's
// payload fields.
func (r *recorder) fill(c *chunk) {
	clear(c.children)
	c.ops, c.children, c.firstChild = c.ops[:0], c.children[:0], r.forks
	g := r.gen
	for len(c.ops) < cap(c.ops) && !r.exited {
		base, n, kind := g.step(kernel.CompiledRunCap)
		c.ops = c.ops[:len(c.ops)+1]
		op := &c.ops[len(c.ops)-1]
		switch {
		case n > 0:
			*op = kernel.CompiledOp{Kind: kernel.OpRun, VA: base, N: uint16(n)}
		case kind == kernel.EvRef:
			*op = kernel.CompiledOp{Kind: kernel.OpData, VA: g.evRef.VA, Ref: g.evRef.Kind}
		case kind == kernel.EvSyscall:
			*op = kernel.ArgOp(kernel.OpSyscall, int32(g.evSvc))
		case kind == kernel.EvFork:
			*op = kernel.ArgOp(kernel.OpFork, r.forks)
			if g.spec.ChildShareText {
				op.N = 1
			}
			c.children = append(c.children, g.evChild)
			g.evChild = nil
			r.forks++
		default:
			*op = kernel.CompiledOp{Kind: kernel.OpExit}
			r.exited = true
		}
	}
}

// cursor is a replay position in an op stream read one window at a time:
// the window that holds it, the stream index of the window's first op,
// the stream op index, and the instructions already consumed of the run
// op there (nonzero only while a Next-driven stint sits inside a run op).
// Compiled images and decode-ahead streams share it; each moves the
// window its own way.
type cursor struct {
	ops    []kernel.CompiledOp
	base   int
	pos    int
	runOff int
}

// Window implements kernel.CompiledProgram.
func (c *cursor) Window() ([]kernel.CompiledOp, int) { return c.ops, c.base }

// SeekOp implements kernel.CompiledProgram.
func (c *cursor) SeekOp(pos int) { c.pos, c.runOff = pos, 0 }

// op returns the op at the cursor, which must lie in the window.
func (c *cursor) op() *kernel.CompiledOp { return &c.ops[c.pos-c.base] }

// run consumes up to max fetches of op, the run op at pos: run ops split
// but never merge, so every event boundary of the recorded stream
// survives at any max.
func (c *cursor) run(op *kernel.CompiledOp, max int) (mem.VAddr, int) {
	n := int(op.N) - c.runOff
	if n > max {
		n = max
	}
	base := op.VA + mem.VAddr(mem.WordBytes*c.runOff)
	c.runOff += n
	if c.runOff == int(op.N) {
		c.pos++
		c.runOff = 0
	}
	return base, n
}

// stream is the consumer half of a decode-ahead program. Its window is
// the chunk its cursor reads; reaching the end of a window hands the chunk
// back to the producer and takes the next. Like the interpreter, it
// cannot seek: it is not a kernel.CursorProgram, and SeekOp only commits
// forward progress within the current window.
type stream struct {
	cursor
	gen        *program // until first use
	first, max int      // chunk capacities: the first, and the cap
	cur        *chunk   // the window's chunk
	full       <-chan *chunk
	free       chan<- *chunk
}

// exitOps is the window of a stream that has reached OpExit and handed
// its ring back.
var exitOps = []kernel.CompiledOp{{Kind: kernel.OpExit}}

func newStream(gen *program, first, max int) *stream {
	return &stream{gen: gen, first: first, max: max}
}

// OpPos implements kernel.CompiledProgram. A cursor at the end of its
// window moves to the start of the next chunk first, so Window, called
// after it, is the window that holds the cursor.
func (s *stream) OpPos() (int, bool) {
	if s.pos-s.base == len(s.ops) {
		s.advance()
	}
	return s.pos, s.runOff == 0
}

// Next implements kernel.Program.
func (s *stream) Next() kernel.Event {
	base, n, ev := s.NextRun(1)
	if n > 0 {
		return kernel.Event{Kind: kernel.EvRef, Ref: mem.Ref{VA: base, Kind: mem.IFetch}}
	}
	return ev
}

// NextRun implements kernel.BatchProgram by replaying the lowered ops.
func (s *stream) NextRun(max int) (mem.VAddr, int, kernel.Event) {
	if s.pos-s.base == len(s.ops) {
		s.advance()
	}
	op := s.op()
	switch op.Kind {
	case kernel.OpRun:
		base, n := s.run(op, max)
		return base, n, kernel.Event{}
	case kernel.OpData:
		s.pos++
		return 0, 0, kernel.Event{Kind: kernel.EvRef, Ref: mem.Ref{VA: op.VA, Kind: op.Ref}}
	case kernel.OpSyscall:
		s.pos++
		return 0, 0, kernel.Event{Kind: kernel.EvSyscall, Service: kernel.ServiceID(op.Arg())}
	case kernel.OpFork:
		s.pos++
		return 0, 0, kernel.Event{
			Kind:      kernel.EvFork,
			Child:     newStream(s.cur.children[op.Arg()-s.cur.firstChild], s.first, s.max),
			ShareText: op.N != 0,
		}
	}
	// OpExit is sticky. The producer has returned; let the ring go.
	if s.free != nil {
		s.cur, s.full, s.free = nil, nil, nil
		s.ops, s.base = exitOps, s.pos
	}
	return 0, 0, kernel.Event{Kind: kernel.EvExit}
}

// advance moves the window to the next chunk. On first use it lowers the
// first chunk itself, so a stream never waits for its producer to start
// (and one that exits within the first chunk never starts one), then
// starts the producer on the rest; later it recycles the spent chunk and
// takes the next.
func (s *stream) advance() {
	if s.cur == nil {
		r := &recorder{gen: s.gen}
		s.gen = nil
		s.cur = &chunk{ops: make([]kernel.CompiledOp, 0, s.first)}
		r.fill(s.cur)
		if !r.exited {
			// Each channel can buffer every chunk of the ring, so
			// neither side ever blocks on a send.
			full := make(chan *chunk, ringChunks)
			free := make(chan *chunk, ringChunks)
			stop := make(chan struct{})
			go produce(r, min(2*s.first, s.max), s.max, full, free, stop)
			// The producer holds only the recorder and the channels, so
			// a consumer dropped mid-stream becomes unreachable and its
			// cleanup stops it.
			runtime.AddCleanup(s, func(stop chan struct{}) { close(stop) }, stop)
			s.full, s.free = full, free
		}
	} else {
		s.free <- s.cur
		s.cur = <-s.full
	}
	s.ops, s.base = s.cur.ops, s.pos
}

// produce is a stream's producer goroutine. It lowers the rest of r's
// stream into chunks of size ops, doubling up to max, and sends them on
// full. It allocates chunks until the ring holds ringChunks (the
// consumer's first chunk counts), then refills the chunks the consumer
// recycles on free. It returns after sending the chunk that holds OpExit,
// or when stop closes while it waits for a recycled chunk.
func produce(r *recorder, size, max int, full chan<- *chunk, free <-chan *chunk, stop <-chan struct{}) {
	made := 1
	for !r.exited {
		var c *chunk
		select {
		case c = <-free:
		default:
			if made == ringChunks {
				select {
				case c = <-free:
				case <-stop:
					return
				}
			} else {
				made++
				c = &chunk{}
			}
		}
		if cap(c.ops) < size {
			c.ops = make([]kernel.CompiledOp, 0, size)
		}
		r.fill(c)
		full <- c
		size = min(2*size, max)
	}
}
