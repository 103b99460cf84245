package workload

import (
	"fmt"

	"tapeworm/internal/kernel"
	"tapeworm/internal/mem"
	"tapeworm/internal/rng"
	"tapeworm/internal/textwalk"
)

// program is a workload task's reference generator. Its stream is a
// deterministic function of (spec, seed, task label): it never consults
// machine or kernel state, so single-task virtually-indexed simulations
// are exactly reproducible regardless of scheduling — the property the
// paper's validation against Cache2000 relies on. Compile and decode-ahead
// streams record it; run directly, it is the reference interpreter.
type program struct {
	spec *Spec
	r    *rng.Source

	remaining uint64 // user instructions still to emit

	// Text walk: one walker per procedure, Zipf-selected per visit, with
	// a per-phase permutation so working sets drift over time.
	procs     []*textwalk.Walker
	zipf      *rng.Zipf
	perm      []int
	cur       *textwalk.Walker
	visitLeft int
	phaseLeft uint64

	// Data references. pendingData defers the data reference in evRef,
	// drawn after a run's last fetch, to the next step.
	dataR       *rng.Source
	pendingData bool
	streamPos   uint32

	// Current pre-drawn walker run (see step): the walker has already
	// committed to these sequential fetches; slots consume them one
	// address at a time. pendingSvc defers a syscall event whose
	// probability draw fired while a run was open.
	runBase    mem.VAddr
	runLeft    int
	pendingSvc bool

	// The payload of the event step last returned: EvRef's reference,
	// EvSyscall's service, EvFork's child (cleared by whoever takes it).
	evRef   mem.Ref
	evSvc   kernel.ServiceID
	evChild *program

	// Syscalls occur with probability syscallProb per user instruction —
	// probabilistic rather than counted, so tasks shorter than the mean
	// interval still issue their expected share (the sdet/kenbus fork
	// trees run thousands of very short tasks).
	syscallProb float64
	mixCum      [3]float64
	mixSvc      [3]kernel.ServiceID

	// Forking.
	forksLeft  int
	forkEvery  uint64
	sinceFork  uint64
	childIndex int
	makeChild  func(i int) *program
}

// New builds the root Program for spec, seeded by seed, as a decode-ahead
// stream: first driven, it lowers a first chunk of ops itself, then a
// producer goroutine generates the rest into chunks ahead of the
// consumer, which the kernel replays through its compiled loop (see
// stream.go). The root forks the spec's fork tree as it runs; each child
// is a decode-ahead stream too. The stream is byte-identical to
// NewReference's. A producer stops at the stream's exit, or once its
// program is garbage.
func New(spec Spec, seed uint64) (kernel.Program, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return newStream(newGenerator(spec, seed), firstChunkOps, maxRingChunkOps), nil
}

// MustNew is New, a decode-ahead stream, but panics on error.
func MustNew(spec Spec, seed uint64) kernel.Program {
	p, err := New(spec, seed)
	if err != nil {
		panic(err)
	}
	return p
}

// NewReference builds the root Program for spec as the reference
// interpreter: the generator itself, drawing every reference on the
// driving goroutine as it is asked for. It is the oracle the compiled and
// decode-ahead paths are checked against (the experiment layer's
// reference executor and tests); simulations should use NewPlanned or
// New.
func NewReference(spec Spec, seed uint64) (kernel.Program, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return newGenerator(spec, seed), nil
}

// newGenerator builds the root generator for a valid spec, seeded by seed.
func newGenerator(spec Spec, seed uint64) *program {
	s := spec // private copy
	userTotal := s.UserInstructions()
	rootInstr := uint64(float64(userTotal) * s.RootWorkFrac)

	var directChildren, grandPerChild int
	childCount := s.Tasks - 1
	if childCount > 0 {
		if s.ForkDepth == 2 && childCount >= 4 {
			// Two-level tree: sqrt-ish split, e.g. 280 -> 16 children
			// each forking ~16 grandchildren.
			directChildren = isqrt(childCount)
			grandPerChild = (childCount - directChildren) / directChildren
			// Remainder is absorbed by giving the first children one
			// extra grandchild each.
		} else {
			directChildren = childCount
		}
	}
	childWork := uint64(0)
	if childCount > 0 {
		childWork = (userTotal - rootInstr) / uint64(childCount)
		if childWork == 0 {
			childWork = 1
		}
	}

	// Syscall rates are solved once, from the whole-workload spec, and
	// shared by every task in the tree.
	prob, cum, svcs := s.rates()
	cs := childSpec(&s)
	root := newProgram(&s, rng.New(seed).Split("task-root"), rootInstr)
	root.syscallProb, root.mixCum, root.mixSvc = prob, cum, svcs
	if directChildren > 0 {
		extra := 0
		if s.ForkDepth == 2 {
			extra = (childCount - directChildren) - grandPerChild*directChildren
		}
		root.forksLeft = directChildren
		root.forkEvery = maxu64(rootInstr/uint64(directChildren+1), 1)
		root.makeChild = func(i int) *program {
			label := fmt.Sprintf("task-%d", i)
			gc := 0
			if s.ForkDepth == 2 {
				gc = grandPerChild
				if i < extra {
					gc++
				}
			}
			c := newProgram(cs, rng.New(seed).Split(label), childWork)
			c.syscallProb, c.mixCum, c.mixSvc = prob, cum, svcs
			if gc > 0 {
				c.forksLeft = gc
				c.forkEvery = maxu64(childWork/uint64(gc+1), 1)
				c.makeChild = func(j int) *program {
					g := newProgram(cs,
						rng.New(seed).Split(fmt.Sprintf("%s-%d", label, j)), childWork)
					g.syscallProb, g.mixCum, g.mixSvc = prob, cum, svcs
					return g
				}
			}
			return c
		}
	}
	return root
}

func isqrt(n int) int {
	r := 1
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

func maxu64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// newProgram builds one task's generator emitting n user instructions.
func newProgram(s *Spec, r *rng.Source, n uint64) *program {
	p := &program{
		spec:      s,
		r:         r.Split("walk"),
		dataR:     r.Split("data"),
		remaining: n,
		phaseLeft: s.PhaseLen,
	}
	// Carve the text into procedures, each with its own walker. The last
	// kilobyte of the text is a shared helper slice (library epilogue)
	// called from every procedure; it lives inside TextBytes so the
	// spec's footprint is the program's whole instruction working set.
	const helperSize = 1 << 10
	body := s.TextBytes - helperSize
	if s.TextBytes < 2*helperSize {
		body = s.TextBytes / 2
	}
	procSize := (body / uint32(s.Procs)) &^ 63
	if procSize < 64 {
		procSize = 64
	}
	helper := textwalk.Region{
		Base: kernel.TextBase + mem.VAddr(body),
		Size: s.TextBytes - body,
	}
	params := textwalk.DefaultParams()
	params.CallProb = 0.03
	for i := 0; i < s.Procs; i++ {
		region := textwalk.Region{
			Base: kernel.TextBase + mem.VAddr(uint32(i)*procSize),
			Size: procSize,
		}
		p.procs = append(p.procs, textwalk.MustNew(
			p.r.Split(fmt.Sprintf("proc-%d", i)), region, params,
			[]textwalk.Region{helper}))
	}
	p.zipf = rng.NewZipf(p.r.Split("zipf"), s.Procs, s.ZipfSkew)
	p.perm = identity(s.Procs)
	p.cur = p.procs[0]
	p.visitLeft = s.VisitLen

	p.syscallProb, p.mixCum, p.mixSvc = s.rates()
	return p
}

// childSpec derives the per-child variant of a fork-tree workload: child
// tasks are short-lived utilities whose data work stays within the hot
// footprint (streaming over the full dataset is the root's job).
func childSpec(s *Spec) *Spec {
	c := *s
	if c.DataHotBytes > 0 {
		c.DataBytes = c.DataHotBytes
	}
	c.StreamFrac = 0
	return &c
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Next implements kernel.Program.
func (p *program) Next() kernel.Event {
	base, n, ev := p.NextRun(1)
	if n > 0 {
		return kernel.Event{Kind: kernel.EvRef, Ref: mem.Ref{VA: base, Kind: mem.IFetch}}
	}
	return ev
}

// NextRun implements kernel.BatchProgram: it is step, with the event
// built from the payload step leaves behind.
func (p *program) NextRun(max int) (mem.VAddr, int, kernel.Event) {
	base, n, kind := p.step(max)
	switch {
	case n > 0:
		return base, n, kernel.Event{}
	case kind == kernel.EvRef:
		return 0, 0, kernel.Event{Kind: kernel.EvRef, Ref: p.evRef}
	case kind == kernel.EvSyscall:
		return 0, 0, kernel.Event{Kind: kernel.EvSyscall, Service: p.evSvc}
	case kind == kernel.EvFork:
		child := p.evChild
		p.evChild = nil
		return 0, 0, kernel.Event{Kind: kernel.EvFork, Child: child, ShareText: p.spec.ChildShareText}
	}
	return 0, 0, kernel.Event{Kind: kernel.EvExit}
}

// step is the generator's one body, which the reference interpreter
// (NextRun) and the recorder both drive. It returns a run of n > 0
// sequential fetches from base, at most max, or, with n == 0, the kind of
// the next event, whose payload it leaves in evRef, evSvc or evChild (a
// fork's ShareText is the spec's ChildShareText).
//
// The stream is identical to driving the program through Next: every
// per-instruction draw (syscall, data reference) stays in slot order on
// its own source, and walker runs are pre-committed from the walker's
// private source, whose draw sequence batching does not reorder. Runs end
// at taken branches, visit switches, pending data references and events,
// so the returned fetches are sequential and the interleaving with data
// references is preserved exactly.
func (p *program) step(max int) (mem.VAddr, int, kernel.EventKind) {
	if p.pendingData {
		p.pendingData = false
		return 0, 0, kernel.EvRef
	}
	if p.pendingSvc {
		p.pendingSvc = false
		p.evSvc = p.pickService()
		return 0, 0, kernel.EvSyscall
	}
	var base mem.VAddr
	n := 0
	for n < max {
		if p.remaining == 0 {
			if n > 0 {
				return base, n, kernel.EvRef
			}
			return 0, 0, kernel.EvExit
		}
		if p.forksLeft > 0 && p.sinceFork >= p.forkEvery {
			if n > 0 {
				return base, n, kernel.EvRef
			}
			p.sinceFork = 0
			p.forksLeft--
			i := p.childIndex
			p.childIndex++
			p.evChild = p.makeChild(i)
			return 0, 0, kernel.EvFork
		}
		if p.syscallProb > 0 && p.dataR.Bool(p.syscallProb) {
			if n > 0 {
				// The event is deferred to the next call, but its service
				// draw happens there, after this Bool on the same source —
				// the same order Next alone would produce.
				p.pendingSvc = true
				return base, n, kernel.EvRef
			}
			p.evSvc = p.pickService()
			return 0, 0, kernel.EvSyscall
		}

		// One user instruction.
		p.remaining--
		p.sinceFork++
		if p.visitLeft <= 0 {
			p.cur = p.procs[p.perm[p.zipf.Draw()]]
			p.cur.JumpTo(0)
			p.visitLeft = p.spec.VisitLen
			p.runLeft = 0
		}
		p.visitLeft--
		if p.phaseLeft > 0 {
			p.phaseLeft--
			if p.phaseLeft == 0 {
				p.perm = p.r.Perm(p.spec.Procs)
				p.phaseLeft = p.spec.PhaseLen
			}
		}
		if p.runLeft == 0 {
			// Pre-draw the walker's next sequential run, clamped so it
			// cannot span a visit switch or the task's last instruction.
			lim := p.visitLeft + 1
			if r := p.remaining + 1; uint64(lim) > r {
				lim = int(r)
			}
			p.runBase, p.runLeft = p.cur.NextRun(lim)
		}
		va := p.runBase
		p.runBase += 4
		p.runLeft--
		if n == 0 {
			base = va
		}
		n++

		if p.spec.DataRefsPerInstr > 0 && p.dataR.Bool(p.spec.DataRefsPerInstr) {
			p.evRef = p.dataRef()
			p.pendingData = true
			return base, n, kernel.EvRef
		}
		if p.runLeft == 0 {
			// Taken branch or visit end: the next fetch is non-sequential.
			return base, n, kernel.EvRef
		}
	}
	return base, n, kernel.EvRef
}

// pickService draws a service from the workload's syscall mix.
func (p *program) pickService() kernel.ServiceID {
	u := p.dataR.Float64()
	for i, c := range p.mixCum {
		if u < c {
			return p.mixSvc[i]
		}
	}
	return p.mixSvc[2]
}

// dataRef produces one data reference: streaming (sequential over the full
// footprint), hot (within the hot subset), or cold (uniform).
func (p *program) dataRef() mem.Ref {
	s := p.spec
	var off uint32
	switch {
	case s.StreamFrac > 0 && p.dataR.Bool(s.StreamFrac):
		off = p.streamPos
		p.streamPos += 4
		if p.streamPos >= s.DataBytes {
			p.streamPos = 0
		}
	case p.dataR.Bool(0.95) && s.DataHotBytes > 0:
		off = uint32(p.dataR.Intn(int(s.DataHotBytes))) &^ 3
	default:
		off = uint32(p.dataR.Intn(int(s.DataBytes))) &^ 3
	}
	kind := mem.Load
	if p.dataR.Bool(s.StoreFrac) {
		kind = mem.Store
	}
	return mem.Ref{VA: kernel.DataBase + mem.VAddr(off), Kind: kind}
}
