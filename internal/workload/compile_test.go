package workload

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"tapeworm/internal/kernel"
	"tapeworm/internal/mem"
)

// flatEvent is one element of a program's flattened event stream: run ops
// are exploded into per-instruction fetches so that streams produced at
// different batch widths compare equal exactly when the underlying
// instruction/event sequence is identical.
type flatEvent struct {
	kind   kernel.EventKind
	va     mem.VAddr
	ref    mem.RefKind
	svc    kernel.ServiceID
	shared bool
}

// flatten explodes prog's stream via NextRun(width), recursing into forked
// children depth-first (fork order is deterministic, so the flattening is
// too). cap bounds runaway streams.
func flatten(t *testing.T, prog kernel.Program, width, cap int) []flatEvent {
	t.Helper()
	bp, ok := prog.(kernel.BatchProgram)
	if !ok {
		t.Fatalf("program %T is not batchable", prog)
	}
	var out []flatEvent
	for len(out) < cap {
		base, n, ev := bp.NextRun(width)
		if n > 0 {
			for i := 0; i < n; i++ {
				out = append(out, flatEvent{kind: kernel.EvRef, va: base + mem.VAddr(4*i), ref: mem.IFetch})
			}
			continue
		}
		switch ev.Kind {
		case kernel.EvRef:
			out = append(out, flatEvent{kind: kernel.EvRef, va: ev.Ref.VA, ref: ev.Ref.Kind})
		case kernel.EvSyscall:
			out = append(out, flatEvent{kind: kernel.EvSyscall, svc: ev.Service})
		case kernel.EvFork:
			out = append(out, flatEvent{kind: kernel.EvFork, shared: ev.ShareText})
			out = append(out, flatten(t, ev.Child, width, cap-len(out))...)
		case kernel.EvExit:
			out = append(out, flatEvent{kind: kernel.EvExit})
			return out
		}
	}
	return out
}

// flattenNext explodes prog's stream via Next alone.
func flattenNext(t *testing.T, prog kernel.Program, cap int) []flatEvent {
	t.Helper()
	var out []flatEvent
	for len(out) < cap {
		ev := prog.Next()
		switch ev.Kind {
		case kernel.EvRef:
			out = append(out, flatEvent{kind: kernel.EvRef, va: ev.Ref.VA, ref: ev.Ref.Kind})
		case kernel.EvSyscall:
			out = append(out, flatEvent{kind: kernel.EvSyscall, svc: ev.Service})
		case kernel.EvFork:
			out = append(out, flatEvent{kind: kernel.EvFork, shared: ev.ShareText})
			out = append(out, flattenNext(t, ev.Child, cap-len(out))...)
		case kernel.EvExit:
			out = append(out, flatEvent{kind: kernel.EvExit})
			return out
		}
	}
	return out
}

// flattenMixed interleaves Next and NextRun on the same program — the
// shape a traced task or instruction-limited run produces — and explodes
// the stream like flatten, draining forked children through Next.
func flattenMixed(t *testing.T, prog kernel.Program, cap int) []flatEvent {
	t.Helper()
	bp := prog.(kernel.BatchProgram)
	var got []flatEvent
	for i := 0; len(got) < cap; i++ {
		var ev kernel.Event
		if i%3 == 0 {
			ev = bp.Next()
			if ev.Kind == kernel.EvRef && ev.Ref.Kind == mem.IFetch {
				got = append(got, flatEvent{kind: kernel.EvRef, va: ev.Ref.VA, ref: mem.IFetch})
				continue
			}
		} else {
			var base mem.VAddr
			var n int
			base, n, ev = bp.NextRun(5 + i%60)
			if n > 0 {
				for j := 0; j < n; j++ {
					got = append(got, flatEvent{kind: kernel.EvRef, va: base + mem.VAddr(4*j), ref: mem.IFetch})
				}
				continue
			}
		}
		switch ev.Kind {
		case kernel.EvRef:
			got = append(got, flatEvent{kind: kernel.EvRef, va: ev.Ref.VA, ref: ev.Ref.Kind})
		case kernel.EvSyscall:
			got = append(got, flatEvent{kind: kernel.EvSyscall, svc: ev.Service})
		case kernel.EvFork:
			got = append(got, flatEvent{kind: kernel.EvFork, shared: ev.ShareText})
			got = append(got, flattenNext(t, ev.Child, cap-len(got))...)
		case kernel.EvExit:
			return append(got, flatEvent{kind: kernel.EvExit})
		}
	}
	return got
}

func compareStreams(t *testing.T, name string, want, got []flatEvent) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: stream lengths differ: reference %d, replay %d", name, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: streams diverge at event %d: reference %+v, replay %+v", name, i, want[i], got[i])
		}
	}
}

// ref builds the reference interpreter for (spec, seed), the oracle every
// replay path is checked against.
func ref(t *testing.T, spec Spec, seed uint64) kernel.Program {
	t.Helper()
	p, err := NewReference(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// replayPaths are the optimized constructors whose streams must equal the
// reference interpreter's: a fresh compiled image, and decode-ahead.
var replayPaths = []struct {
	name string
	new  func(Spec, uint64) (kernel.Program, error)
}{
	{"compiled", func(s Spec, seed uint64) (kernel.Program, error) { return Compile(s, seed) }},
	{"decode-ahead", New},
}

// TestCompiledStreamMatchesInterpreter checks byte-identity of the
// compiled replay and of decode-ahead against the reference interpreter
// across fork-tree shapes (single task, one-level, two-level trees) and
// batch widths, including the per-instruction Next path.
func TestCompiledStreamMatchesInterpreter(t *testing.T) {
	const scale = 40000 // small streams; sdet/kenbus still fork full trees
	const seed = 1994
	const capEvents = 5 << 20
	for _, name := range []string{"eqntott", "mpeg_play", "ousterhout", "sdet"} {
		spec, err := ByName(name, scale)
		if err != nil {
			t.Fatal(err)
		}
		want := flatten(t, ref(t, spec, seed), kernel.CompiledRunCap, capEvents)
		for _, path := range replayPaths {
			fresh := func() kernel.Program {
				p, err := path.new(spec, seed)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, path.name, err)
				}
				return p
			}
			for _, width := range []int{1, 7, 64, 1024} {
				compareStreams(t, fmt.Sprintf("%s/%s/run%d", name, path.name, width), want,
					flatten(t, fresh(), width, capEvents))
			}
			compareStreams(t, name+"/"+path.name+"/next", want, flattenNext(t, fresh(), capEvents))
		}
	}
}

// TestCompiledMixedDriving interleaves Next and NextRun on the same
// replayer, compiled and decode-ahead, and checks the flat stream still
// matches the reference interpreter's.
func TestCompiledMixedDriving(t *testing.T) {
	const seed = 7
	for _, name := range []string{"eqntott", "sdet"} {
		spec, err := ByName(name, 40000)
		if err != nil {
			t.Fatal(err)
		}
		want := flatten(t, ref(t, spec, seed), 64, 1<<20)
		for _, path := range replayPaths {
			p, err := path.new(spec, seed)
			if err != nil {
				t.Fatal(err)
			}
			compareStreams(t, name+"/"+path.name+"/mixed", want, flattenMixed(t, p, 1<<20))
		}
	}
}

// TestNewPlannedCacheSharesImages checks the cache returns independent
// replayers over one shared image, and that replays don't perturb each
// other.
func TestNewPlannedCacheSharesImages(t *testing.T) {
	spec, err := ByName("espresso", 40000)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewPlanned(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlanned(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	ca, ok := a.(*Compiled)
	if !ok {
		t.Fatalf("NewPlanned returned %T, want *Compiled", a)
	}
	cb := b.(*Compiled)
	if ca.img != cb.img {
		t.Fatal("cache did not share the compiled image")
	}
	// Drive one replayer forward; the other must be unaffected.
	ca.NextRun(64)
	if pos, _ := cb.OpPos(); pos != 0 {
		t.Fatal("advancing one replayer moved another's cursor")
	}
}

// TestRefusedStreamNotRecompiled: a stream beyond the compile budget is
// refused from its spec before the image cache is consulted. The refusal
// counts as neither a compile nor a hit — every lookup counts one or the
// other, so it made no cache entry either — and NewPlanned still returns
// a decode-ahead stream for it, every time.
func TestRefusedStreamNotRecompiled(t *testing.T) {
	spec, err := ByName("espresso", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		hits0, compiles0 := ImageCacheStats()
		prog, err := NewPlanned(spec, 43)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := prog.(*stream); !ok {
			t.Fatalf("request %d: NewPlanned returned %T, want a decode-ahead stream", i, prog)
		}
		if _, err := PlannedOps(spec, 43); err != ErrStreamTooLarge {
			t.Fatalf("request %d: PlannedOps err = %v, want ErrStreamTooLarge", i, err)
		}
		hits, compiles := ImageCacheStats()
		if compiles != compiles0 || hits != hits0 {
			t.Fatalf("request %d: %d compiles, %d hits; want none", i, compiles-compiles0, hits-hits0)
		}
	}
}

// TestRefusalAllocatesNothing: the refusal precedes generation, so
// refusing xlisp at the standard scale (its stream is about 10M ops)
// allocates nothing on any entry point that can refuse. Every call uses a
// fresh seed, so no earlier request for the same stream can answer it.
func TestRefusalAllocatesNothing(t *testing.T) {
	spec, err := ByName("xlisp", DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(1 << 40)
	for _, c := range []struct {
		name string
		call func(seed uint64) error
	}{
		{"Compile", func(seed uint64) error { _, err := Compile(spec, seed); return err }},
		{"PlannedOps", func(seed uint64) error { _, err := PlannedOps(spec, seed); return err }},
		{"NewPlannedAt", func(seed uint64) error {
			_, err := NewPlannedAt(spec, seed, kernel.ProgramCursor{})
			return err
		}},
	} {
		var err error
		if allocs := testing.AllocsPerRun(3, func() { seed++; err = c.call(seed) }); allocs != 0 {
			t.Errorf("%s allocated %v times refusing xlisp@%d", c.name, allocs, DefaultScale)
		}
		if err != ErrStreamTooLarge {
			t.Errorf("%s err = %v, want ErrStreamTooLarge", c.name, err)
		}
	}
}

// TestCompileSet pins which paper streams compile at the scales the
// benchmark, CI and the command-line defaults use. Scale 125 must compile
// mpeg_play: the sampled sweep's interval path needs its image.
func TestCompileSet(t *testing.T) {
	all := Names()
	for _, c := range []struct {
		scale float64
		want  []string
	}{
		{100, []string{"espresso", "ousterhout", "sdet", "kenbus"}},
		{125, []string{"espresso", "mpeg_play", "ousterhout", "sdet", "kenbus"}},
		{400, all},
		{800, all},
		{1000, all},
		{4000, all},
	} {
		var got []string
		for _, spec := range Specs(c.scale) {
			switch err := compilable(spec); err {
			case nil:
				got = append(got, spec.Name)
			case ErrStreamTooLarge:
			default:
				t.Fatalf("%s@%v: %v", spec.Name, c.scale, err)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("scale %v compiles %v, want %v", c.scale, got, c.want)
		}
	}
}

// TestOpPosAlignment checks OpPos reports misalignment while a run op is
// partially consumed and realigns at the boundary.
func TestOpPosAlignment(t *testing.T) {
	spec, err := ByName("eqntott", 40000)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	c.OpPos()
	ops, _ := c.Window()
	if len(ops) == 0 || ops[0].Kind != kernel.OpRun {
		t.Skipf("stream does not start with a run op")
	}
	if ops[0].N > 1 {
		c.Next()
		if _, ok := c.OpPos(); ok {
			t.Fatal("OpPos claims alignment mid-run")
		}
		for i := 1; i < int(ops[0].N); i++ {
			c.Next()
		}
		if pos, ok := c.OpPos(); !ok || pos != 1 {
			t.Fatalf("OpPos = %d,%v after consuming the first run, want 1,true", pos, ok)
		}
	}
}

// tinyCompiled compiles (spec, seed) into an image whose chunks start at
// first ops and double up to max, so chunk boundaries fall every few ops.
func tinyCompiled(t *testing.T, spec Spec, seed uint64, first, max int) *Compiled {
	t.Helper()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	return newCompiled(compileImage(newGenerator(spec, seed), first, max), nil, 0)
}

// TestCompiledChunkBoundaries checks compiled replay against the reference
// interpreter when an image's chunks hold one or two ops, so nearly every
// op sits next to a chunk boundary: driven by NextRun at several widths,
// by Next, by both, and by the kernel's compiled loop. A replay rewound by
// SeekOp(0) after reaching its exit must replay the same stream again.
func TestCompiledChunkBoundaries(t *testing.T) {
	const seed = 1994
	const capEvents = 1 << 20
	for _, name := range []string{"eqntott", "ousterhout", "sdet"} {
		spec, err := ByName(name, 40000)
		if err != nil {
			t.Fatal(err)
		}
		want := flatten(t, ref(t, spec, seed), kernel.CompiledRunCap, capEvents)
		wantRun := runSolo(t, spec, ref(t, spec, seed))
		for _, sz := range [][2]int{{1, 1}, {2, 2}, {1, 2}} {
			label := fmt.Sprintf("%s/chunks%d-%d", name, sz[0], sz[1])
			for _, width := range []int{1, 7, 64} {
				c := tinyCompiled(t, spec, seed, sz[0], sz[1])
				compareStreams(t, fmt.Sprintf("%s/run%d", label, width), want, flatten(t, c, width, capEvents))
				c.SeekOp(0)
				compareStreams(t, fmt.Sprintf("%s/run%d/rewound", label, width), want, flatten(t, c, width, capEvents))
			}
			compareStreams(t, label+"/next", want, flattenNext(t, tinyCompiled(t, spec, seed, sz[0], sz[1]), capEvents))
			compareStreams(t, label+"/mixed", want, flattenMixed(t, tinyCompiled(t, spec, seed, sz[0], sz[1]), capEvents))
			c := tinyCompiled(t, spec, seed, sz[0], sz[1])
			if got := runSolo(t, spec, c); got != wantRun {
				t.Errorf("%s/kernel: %+v\nreference: %+v", label, got, wantRun)
			}
			c.SeekOp(0)
			if got := runSolo(t, spec, c); got != wantRun {
				t.Errorf("%s/kernel/rewound: %+v\nreference: %+v", label, got, wantRun)
			}
		}
	}
}

// TestCursorResumesAcrossChunkSizes drives replays of images with 1- and
// 2-op chunks op by op and, at op indices on and inside the chunk
// boundaries of both those images and the cached image NewPlannedAt
// resumes from, requires the resumed replay to match the rest of the
// original: a cursor's position means the same op at any chunk size.
// eqntott's stream passes the cached image's first boundaries; sdet's
// root is shorter, and its fork children are checked the same way at the
// start of their streams.
func TestCursorResumesAcrossChunkSizes(t *testing.T) {
	const seed = 1994
	const capEvents = 1 << 20
	for _, name := range []string{"eqntott", "sdet"} {
		spec, err := ByName(name, 40000)
		if err != nil {
			t.Fatal(err)
		}
		for _, sz := range [][2]int{{1, 1}, {2, 2}} {
			label := fmt.Sprintf("%s/chunks%d-%d", name, sz[0], sz[1])
			// Default images break at 256, 768 and 1792 ops.
			at := map[int]bool{0: true, 1: true, 2: true, 3: true, 4: true}
			for _, b := range []int{256, 768, 1792} {
				at[b-1], at[b], at[b+1] = true, true, true
			}
			c := tinyCompiled(t, spec, seed, sz[0], sz[1])
			n := c.img.len()
			at[n/2], at[n-1], at[n] = true, true, true
			var children []*Compiled
			for pos := 0; pos <= n; pos++ {
				if pos == n {
					c.SeekOp(n) // past the sticky OpExit at n-1
				}
				if c.pos != pos {
					t.Fatalf("%s: cursor at op %d, want %d", label, c.pos, pos)
				}
				if at[pos] {
					checkResume(t, spec, seed, c, fmt.Sprintf("%s/op%d", label, pos), capEvents)
				}
				if pos >= n-1 {
					continue
				}
				// Consume one whole op; a run op is split once on the way,
				// where no cursor may be taken.
				c.OpPos()
				if ops, base := c.Window(); ops[pos-base].Kind == kernel.OpRun && ops[pos-base].N > 1 {
					c.NextRun(1)
					if _, ok := c.Cursor(); ok {
						t.Fatalf("%s/op%d: cursor reported inside a run op", label, pos)
					}
				}
				if _, _, ev := c.NextRun(kernel.CompiledRunCap); ev.Kind == kernel.EvFork {
					children = append(children, ev.Child.(*Compiled))
				}
			}
			if spec.Tasks > 1 && len(children) == 0 {
				t.Fatalf("%s: no fork children replayed", label)
			}
			for i, child := range children {
				if i%8 == 0 {
					checkResume(t, spec, seed, child, fmt.Sprintf("%s/child%d", label, i), capEvents)
				}
			}
		}
	}
}

// checkResume requires NewPlannedAt at c's cursor to replay the rest of
// c's stream, fork children included, as a copy of c from there does.
func checkResume(t *testing.T, spec Spec, seed uint64, c *Compiled, label string, capEvents int) {
	t.Helper()
	cur, ok := c.Cursor()
	if !ok {
		t.Fatalf("%s: no cursor at an op boundary", label)
	}
	resumed, err := NewPlannedAt(spec, seed, cur)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	rest := newCompiled(c.img, c.path, c.pos)
	compareStreams(t, label, flatten(t, rest, kernel.CompiledRunCap, capEvents),
		flatten(t, resumed, kernel.CompiledRunCap, capEvents))
}

// TestCompiledOpSize pins the op at 8 bytes: the payload shared by a run
// or data op's address and a syscall or fork op's argument is what keeps
// it there.
func TestCompiledOpSize(t *testing.T) {
	if n := unsafe.Sizeof(kernel.CompiledOp{}); n != 8 {
		t.Fatalf("kernel.CompiledOp is %d bytes, want 8", n)
	}
}

// TestCompileAllocatesImageOnce compiles a single-task stream and bounds
// everything it allocated by 1.25 times the image's bytes: the chunks the
// recorder fills are the image, and nothing copies them.
func TestCompileAllocatesImageOnce(t *testing.T) {
	spec, err := ByName("espresso", 400)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Tasks != 1 {
		t.Fatalf("espresso has %d tasks, want 1", spec.Tasks)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := Compile(spec, 1994)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc, img := after.TotalAlloc-before.TotalAlloc, c.img.bytes()
	if float64(alloc) > 1.25*float64(img) {
		t.Fatalf("compiling espresso@400 allocated %d bytes, %.2f× its %d-byte image; want at most 1.25×",
			alloc, float64(alloc)/float64(img), img)
	}
	t.Logf("allocated %d bytes for a %d-byte image (%.3f×)", alloc, img, float64(alloc)/float64(img))
}
