package workload

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"tapeworm/internal/kernel"
	"tapeworm/internal/mach"
)

// tinyStream builds a decode-ahead stream of (spec, seed) whose chunks
// start at first ops and double up to max, so chunk boundaries fall every
// few ops.
func tinyStream(t *testing.T, spec Spec, seed uint64, first, max int) *stream {
	t.Helper()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	return newStream(newGenerator(spec, seed), first, max)
}

// TestDecodeAheadChunkBoundaries checks decode-ahead against the reference
// interpreter when chunks hold one or a few ops, so nearly every op sits
// next to a chunk boundary: run ops split by Next across a window move,
// OpFork as a chunk's last op, children starting their own tiny rings.
func TestDecodeAheadChunkBoundaries(t *testing.T) {
	const seed = 1994
	const capEvents = 1 << 20
	for _, name := range []string{"eqntott", "ousterhout", "sdet"} {
		spec, err := ByName(name, 40000)
		if err != nil {
			t.Fatal(err)
		}
		want := flatten(t, ref(t, spec, seed), kernel.CompiledRunCap, capEvents)
		for _, sz := range [][2]int{{1, 1}, {2, 2}, {1, 3}, {2, 5}} {
			label := fmt.Sprintf("%s/chunks%d-%d", name, sz[0], sz[1])
			for _, width := range []int{1, 7, 64} {
				compareStreams(t, fmt.Sprintf("%s/run%d", label, width), want,
					flatten(t, tinyStream(t, spec, seed, sz[0], sz[1]), width, capEvents))
			}
			compareStreams(t, label+"/next", want,
				flattenNext(t, tinyStream(t, spec, seed, sz[0], sz[1]), capEvents))
			compareStreams(t, label+"/mixed", want,
				flattenMixed(t, tinyStream(t, spec, seed, sz[0], sz[1]), capEvents))
		}
	}
}

// TestDecodeAheadBoundaryCasesOccur pins that the boundary cases the
// identity test relies on really happen at tiny chunk sizes: a first
// chunk of 1 and of 2 ops, a run op partly consumed by Next when its
// chunk ends, and an OpFork as the last op of a chunk.
func TestDecodeAheadBoundaryCasesOccur(t *testing.T) {
	spec, err := ByName("sdet", 40000)
	if err != nil {
		t.Fatal(err)
	}
	for _, first := range []int{1, 2} {
		s := tinyStream(t, spec, 5, first, 2)
		pos, ok := s.OpPos()
		if ops, base := s.Window(); pos != 0 || !ok || base != 0 || len(ops) != first {
			t.Fatalf("first window: pos %d ok %v, base %d, %d ops; want 0 true 0 %d", pos, ok, base, len(ops), first)
		}
		var splitAtEnd, forkAtEnd int
		for i := 0; i < 1<<20; i++ {
			ev := s.Next()
			if s.runOff > 0 && s.pos-s.base == len(s.ops)-1 {
				splitAtEnd++
			}
			if ev.Kind == kernel.EvFork && s.pos-s.base == len(s.ops) {
				forkAtEnd++
			}
			if ev.Kind == kernel.EvExit {
				break
			}
		}
		if splitAtEnd == 0 || forkAtEnd == 0 {
			t.Fatalf("first chunk %d: %d run ops split at a chunk end, %d forks ending a chunk; want both > 0",
				first, splitAtEnd, forkAtEnd)
		}
	}
}

// settledGoroutines collects garbage until the goroutine count stops
// falling below want or the deadline passes, and returns the last count.
func settledGoroutines(want int, wait time.Duration) int {
	deadline := time.Now().Add(wait)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestDecodeAheadProducersStop checks that no producer outlives its
// consumer: streams abandoned mid-run — in a kernel stopped by an
// instruction limit, by a RunUntilInstr target with an sdet fork tree's
// children live, or driven by hand — leave no goroutine once they are
// garbage, and a stream run to its exit leaves none even while it is
// still referenced.
func TestDecodeAheadProducersStop(t *testing.T) {
	start := settledGoroutines(0, 200*time.Millisecond)
	boot := func() *kernel.Kernel {
		k, err := kernel.Boot(kernel.DefaultConfig(mach.DECstation5000_200(4096), 3))
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	xlisp, err := ByName("xlisp", 2000)
	if err != nil {
		t.Fatal(err)
	}
	sdet, err := ByName("sdet", 2000)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		for i := 0; i < 10; i++ {
			k := boot()
			k.Spawn("xlisp", MustNew(xlisp, uint64(i)), false, false)
			if err := k.Run(50_000); err != nil {
				t.Fatal(err)
			}
			k = boot()
			k.Spawn("xlisp", MustNew(xlisp, uint64(i)), false, false)
			if err := k.RunUntilInstr(200_000); err != nil {
				t.Fatal(err)
			}
			p := MustNew(xlisp, uint64(i)).(kernel.BatchProgram)
			for j := 0; j < 1000; j++ {
				p.NextRun(kernel.CompiledRunCap)
			}
		}
		k := boot()
		k.Spawn("sdet", MustNew(sdet, 1), false, false)
		if err := k.RunUntilUser(sdet.UserInstructions() / 2); err != nil {
			t.Fatal(err)
		}
		if k.UserTasksAlive() < 2 {
			t.Fatalf("sdet has %d live tasks at mid-run; want live children", k.UserTasksAlive())
		}
	}()
	if n := settledGoroutines(start, 10*time.Second); n > start {
		t.Fatalf("%d goroutines after abandoning streams, %d before", n, start)
	}

	k := boot()
	root := MustNew(sdet, 2)
	k.Spawn("sdet", root, false, false)
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > start && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > start {
		t.Fatalf("%d goroutines after running streams to exit, %d before", n, start)
	}
	runtime.KeepAlive(root)
	runtime.KeepAlive(k)
}
