package kernel

import (
	"bytes"
	"encoding/gob"
	"errors"
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
// single !=; physBytes holds the gob encoding of the full trap tables.
type ckState struct {
	cycles   uint64
	instret  uint64
	counters mach.Counters
	comp     [NumComponents]uint64
	kstats   Stats
}

func ckSnapshot(t *testing.T, k *Kernel) (ckState, []byte) {
	t.Helper()
	st := ckState{
		cycles:   k.Machine().Cycles(),
		instret:  k.Machine().Instructions(),
		counters: k.Machine().Counters(),
		comp:     k.ComponentInstructions(),
		kstats:   k.Stats(),
	}
	img := mem.CaptureImage(k.Machine().Phys())
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(img); err != nil {
		t.Fatal(err)
	}
	return st, buf.Bytes()
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
	wantState, wantPhys := ckSnapshot(t, fresh)

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
		gotState, gotPhys := ckSnapshot(t, fk)
		if gotState != wantState {
			t.Fatalf("fork %d diverged from fresh boot:\nfork:  %+v\nfresh: %+v", i, gotState, wantState)
		}
		if !bytes.Equal(gotPhys, wantPhys) {
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
	wantState, wantPhys := ckSnapshot(t, fresh)

	fk, err := Fork(cp, slow)
	if err != nil {
		t.Fatal(err)
	}
	runToEnd(t, fk)
	gotState, gotPhys := ckSnapshot(t, fk)
	if gotState != wantState || !bytes.Equal(gotPhys, wantPhys) {
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
		if err := cp.ValidateConfig(bad); !errors.Is(err, ErrCheckpointMismatch) {
			t.Errorf("%s mismatch: ValidateConfig err = %v, want ErrCheckpointMismatch", name, err)
		}
	}
	if err := cp.ValidateConfig(cfg); err != nil {
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

// TestCheckpointEncodeRoundtrip proves the persisted form is faithful: a
// kernel forked from a decoded checkpoint matches one forked from the
// original, byte for byte.
func TestCheckpointEncodeRoundtrip(t *testing.T) {
	cfg := ckConfig(2048, 7)
	src := MustBoot(cfg)
	cp, err := Capture(src, "post-boot")
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	cp2, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if cp2.Mark() != cp.Mark() || cp2.Frames() != cp.Frames() {
		t.Fatalf("roundtrip changed identity: mark %q frames %d", cp2.Mark(), cp2.Frames())
	}

	run := func(cp *Checkpoint) (ckState, []byte) {
		k, err := Fork(cp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		runToEnd(t, k)
		st, phys := ckSnapshot(t, k)
		return st, phys
	}
	s1, p1 := run(cp)
	s2, p2 := run(cp2)
	if s1 != s2 || !bytes.Equal(p1, p2) {
		t.Fatalf("decoded checkpoint diverged:\noriginal: %+v\ndecoded:  %+v", s1, s2)
	}
}

// encodeCheckpoint returns cp's persisted bytes.
func encodeCheckpoint(tb testing.TB, cp *Checkpoint) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// corruptCheckpoints is the corruption matrix: checkpoint files that must
// fail ReadCheckpoint with ErrCheckpointCorrupt, built from a genuine
// small post-boot checkpoint. The frame-table cases decode cleanly as gob
// and match the image geometry; before the tables were checked, the
// first one panicked at the first frame allocation and the second ran to
// completion.
func corruptCheckpoints(tb testing.TB) map[string][]byte {
	tb.Helper()
	cp, err := Capture(MustBoot(ckConfig(256, 11)), "post-boot")
	if err != nil {
		tb.Fatal(err)
	}
	good := encodeCheckpoint(tb, cp)
	tables := func(edit func(w *checkpointWire)) []byte {
		var w checkpointWire
		if err := gob.NewDecoder(bytes.NewReader(good)).Decode(&w); err != nil {
			tb.Fatal(err)
		}
		edit(&w)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(w); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	return map[string][]byte{
		"garbage":   []byte("not a checkpoint"),
		"empty":     nil,
		"truncated": good[:len(good)/2],
		"free frames out of range": tables(func(w *checkpointWire) {
			for i := range w.Free {
				w.Free[i] = 1 << 30
			}
		}),
		"short refcount table": tables(func(w *checkpointWire) { w.Refcount = w.Refcount[:3] }),
		"free list longer than memory": tables(func(w *checkpointWire) {
			w.Free = append(w.Free, w.Free...)
		}),
		"frame free twice":     tables(func(w *checkpointWire) { w.Free[1] = w.Free[0] }),
		"free frame is mapped": tables(func(w *checkpointWire) { w.Refcount[w.Free[0]] = 1 }),
	}
}

func TestReadCheckpointRejectsGarbage(t *testing.T) {
	for name, data := range corruptCheckpoints(t) {
		if _, err := ReadCheckpoint(bytes.NewReader(data)); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("%s: ReadCheckpoint err = %v, want ErrCheckpointCorrupt", name, err)
		}
	}
}

// FuzzReadCheckpoint feeds arbitrary bytes through everything a
// -checkpoint-dir load reaches: decode, ValidateConfig, Fork and a short
// run. Each step must either return an error or finish; none may panic.
func FuzzReadCheckpoint(f *testing.F) {
	cfg := ckConfig(256, 11)
	boot, err := Capture(MustBoot(cfg), "post-boot")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encodeCheckpoint(f, boot))
	ran := MustBoot(cfg)
	ran.Spawn("ck", ckProgram(), true, true)
	if err := ran.Run(0); err != nil {
		f.Fatal(err)
	}
	after, err := CaptureAt(ran, "after-run")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encodeCheckpoint(f, after))
	for _, data := range corruptCheckpoints(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		kcfg := ckConfig(cp.frames, cp.seed)
		kcfg.PageSeed = cp.pageSeed
		kcfg.TapewormFrames = cp.tapewormFrames
		kcfg.WithXServer, kcfg.WithBSDServer = cp.withXServer, cp.withBSDServer
		if err := cp.ValidateConfig(kcfg); err != nil {
			return
		}
		k, err := Fork(cp, kcfg)
		if err != nil {
			return
		}
		k.Spawn("ck", ckProgram(), true, true)
		_ = k.Run(10_000) // an error (out of memory) is an acceptable outcome
	})
}

// BenchmarkBootVsFork quantifies the boot amortization a checkpoint buys:
// fork must be at least 5x faster than a fresh boot (the PR's acceptance
// floor; the frame-allocator shuffle and walker construction dominate
// boot).
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
