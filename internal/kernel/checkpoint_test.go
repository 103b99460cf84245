package kernel

import (
	"errors"
	"reflect"
	"testing"

	"tapeworm/internal/mach"
	"tapeworm/internal/mem"
)

// ckProgram builds a workload that exercises every piece of state a
// checkpoint must carry: kernel walkers (syscalls), both servers, VM
// faults across text and data pages, and a fork (task tree, frame
// refcounts, task-ID allocation).
func ckProgram() Program {
	events := refs(TextBase, 3000)
	events = append(events,
		Event{Kind: EvSyscall, Service: SvcRead},
		Event{Kind: EvSyscall, Service: SvcBSDFile},
		Event{Kind: EvSyscall, Service: SvcXRender},
	)
	for i := 0; i < 64; i++ {
		events = append(events, Event{Kind: EvRef,
			Ref: mem.Ref{VA: DataBase + mem.VAddr(i*4096), Kind: mem.Load}})
	}
	child := &scriptProgram{events: refs(TextBase, 2000)}
	events = append(events, Event{Kind: EvFork, Child: child, ShareText: true})
	events = append(events, refs(TextBase+0x4000, 2000)...)
	return &scriptProgram{events: events}
}

// ckState is the observable outcome of a finished run, comparable with a
// single !=; ckSnapshot returns the full trap tables beside it.
type ckState struct {
	cycles   uint64
	instret  uint64
	counters mach.Counters
	comp     [NumComponents]uint64
	kstats   Stats
}

func ckSnapshot(k *Kernel) (ckState, *mem.Image) {
	st := ckState{
		cycles:   k.Machine().Cycles(),
		instret:  k.Machine().Instructions(),
		counters: k.Machine().Counters(),
		comp:     k.ComponentInstructions(),
		kstats:   k.Stats(),
	}
	return st, mem.CaptureImage(k.Machine().Phys())
}

func ckConfig(frames int, seed uint64) Config {
	cfg := DefaultConfig(mach.DECstation5000_200(frames), seed)
	cfg.PageSeed = seed * 31
	return cfg
}

// runToEnd spawns the canonical program and drives it to completion.
func runToEnd(t *testing.T, k *Kernel) {
	t.Helper()
	k.Spawn("ck", ckProgram(), true, true)
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
}

// TestForkMatchesBoot is the core identity contract: a forked kernel runs
// a workload to a byte-identical outcome (machine counters, component
// attribution, task accounting, and the full physical trap tables) as a
// freshly booted kernel with the same configuration.
func TestForkMatchesBoot(t *testing.T) {
	cfg := ckConfig(2048, 7)

	fresh := MustBoot(cfg)
	runToEnd(t, fresh)
	wantState, wantPhys := ckSnapshot(fresh)

	src := MustBoot(cfg)
	cp, err := Capture(src, "post-boot")
	if err != nil {
		t.Fatal(err)
	}

	// Two successive forks, to prove forks are independent of each other
	// and of the (already released) capture kernel.
	for i := 0; i < 2; i++ {
		fk, err := Fork(cp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		runToEnd(t, fk)
		gotState, gotPhys := ckSnapshot(fk)
		if gotState != wantState {
			t.Fatalf("fork %d diverged from fresh boot:\nfork:  %+v\nfresh: %+v", i, gotState, wantState)
		}
		if !reflect.DeepEqual(gotPhys, wantPhys) {
			t.Fatalf("fork %d: physical trap tables differ from fresh boot", i)
		}
	}
	if wantState.instret == 0 || wantState.cycles == 0 {
		t.Fatalf("scenario executed nothing: %+v", wantState)
	}
}

// TestForkRuntimeOptionsMayDiffer pins which configuration knobs are
// identity (must match the capture) and which are runtime-only: a fork
// with the fast path disabled must still work — and still match a fresh
// no-fast-path boot exactly.
func TestForkRuntimeOptionsMayDiffer(t *testing.T) {
	cfg := ckConfig(2048, 7)
	src := MustBoot(cfg)
	cp, err := Capture(src, "post-boot")
	if err != nil {
		t.Fatal(err)
	}

	slow := cfg
	slow.Machine.NoFastPath = true

	fresh := MustBoot(slow)
	runToEnd(t, fresh)
	wantState, wantPhys := ckSnapshot(fresh)

	fk, err := Fork(cp, slow)
	if err != nil {
		t.Fatal(err)
	}
	runToEnd(t, fk)
	gotState, gotPhys := ckSnapshot(fk)
	if gotState != wantState || !reflect.DeepEqual(gotPhys, wantPhys) {
		t.Fatalf("no-fast-path fork diverged:\nfork:  %+v\nfresh: %+v", gotState, wantState)
	}
}

func TestForkRejectsMismatchedConfig(t *testing.T) {
	cfg := ckConfig(2048, 7)
	src := MustBoot(cfg)
	cp, err := Capture(src, "post-boot")
	if err != nil {
		t.Fatal(err)
	}

	mutations := map[string]func(*Config){
		"frames":    func(c *Config) { c.Machine = mach.DECstation5000_200(1024) },
		"seed":      func(c *Config) { c.Seed++ },
		"page seed": func(c *Config) { c.PageSeed++ },
		"tw frames": func(c *Config) { c.TapewormFrames++ },
		"x server":  func(c *Config) { c.WithXServer = false },
		"bsd":       func(c *Config) { c.WithBSDServer = false },
	}
	for name, mutate := range mutations {
		bad := cfg
		mutate(&bad)
		if _, err := Fork(cp, bad); !errors.Is(err, ErrCheckpointMismatch) {
			t.Errorf("%s mismatch: Fork err = %v, want ErrCheckpointMismatch", name, err)
		}
	}
	if _, err := Fork(cp, cfg); err != nil {
		t.Errorf("matching config rejected: %v", err)
	}
}

func TestCaptureRequiresQuiescence(t *testing.T) {
	k := bootTest(t, 2048)
	k.Spawn("p", &scriptProgram{events: refs(TextBase, 100)}, false, false)
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if _, err := Capture(k, "mid-run"); err == nil {
		t.Fatal("Capture accepted a kernel that has already executed")
	}
}

// BenchmarkBootVsFork times a fresh boot against a fork of a post-boot
// checkpoint. Fork starts every interval replay (ForkRun), so it must
// stay well under a boot: bench JSON's fork_speedup floor is 5x (the
// frame-allocator shuffle and walker construction dominate boot).
func BenchmarkBootVsFork(b *testing.B) {
	cfg := ckConfig(8192, 1994)
	b.Run("boot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MustBoot(cfg)
		}
	})
	b.Run("fork", func(b *testing.B) {
		src := MustBoot(cfg)
		cp, err := Capture(src, "post-boot")
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Fork(cp, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
