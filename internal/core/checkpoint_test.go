package core

import (
	"reflect"
	"testing"

	"tapeworm/internal/cache"
	"tapeworm/internal/kernel"
	"tapeworm/internal/mach"
	"tapeworm/internal/mem"
)

// forkDEC captures a post-boot checkpoint and forks a ready-to-run kernel
// from it, alongside a conventionally booted twin for comparison.
func forkDEC(t *testing.T, seed, pageSeed uint64) (fresh, fork *kernel.Kernel) {
	t.Helper()
	cfg := kernel.DefaultConfig(mach.DECstation5000_200(4096), seed)
	cfg.PageSeed = pageSeed
	src := kernel.MustBoot(cfg)
	cp, err := kernel.Capture(src, "post-boot")
	if err != nil {
		t.Fatal(err)
	}
	fork, err = kernel.Fork(cp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return kernel.MustBoot(cfg), fork
}

// runOn attaches cfgs as a gang, runs the workload to completion, and
// returns per-member results plus final cycles and the dense phys state.
func runOn(t *testing.T, k *kernel.Kernel, cfgs []Config, wl string, seed uint64) ([]memberResult, uint64, *mem.Image) {
	t.Helper()
	g := MustAttachGang(k, cfgs)
	spawnWorkload(t, k, wl, seed, true)
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	var out []memberResult
	for _, tw := range g.Members() {
		if err := tw.CheckInvariant(tw.Stats().CrossKindClears); err != nil {
			t.Errorf("invariant: %v", err)
		}
		out = append(out, memberResult{tw.Stats(), tw.MissesByTask(), tw.LedgerCycles()})
	}
	return out, k.Machine().Cycles(), mem.CaptureImage(k.Machine().Phys())
}

// TestForkByteIdentityWithTapeworm is the core-level fork invariant: a
// simulation riding a checkpoint-forked kernel — solo or ganged — must be
// byte-identical to the same simulation on a fresh boot, down to the
// dense trap tables at exit.
func TestForkByteIdentityWithTapeworm(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfgs []Config
	}{
		{"solo", gangConfigs()[:1]},
		{"gang", gangConfigs()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fresh, fork := forkDEC(t, 11, 13)
			wantRes, wantCyc, wantPhys := runOn(t, fresh, tc.cfgs, "espresso", 42)
			gotRes, gotCyc, gotPhys := runOn(t, fork, tc.cfgs, "espresso", 42)
			if !reflect.DeepEqual(gotRes, wantRes) {
				t.Errorf("forked run diverged:\nboot: %+v\nfork: %+v", wantRes, gotRes)
			}
			if gotCyc != wantCyc {
				t.Errorf("cycles: boot %d, fork %d", wantCyc, gotCyc)
			}
			if !reflect.DeepEqual(gotPhys, wantPhys) {
				t.Error("dense trap tables differ between boot and fork at exit")
			}
		})
	}
}

// TestForkDMASharedFrame: device DMA into frames a fork still shares with
// its checkpoint image. Trap-free DMA must not force copy-on-write (the
// ClearTrap fast path skips materialization), and once traps are armed,
// DMA destruction behaves identically on fork and fresh boot.
func TestForkDMASharedFrame(t *testing.T) {
	_, fork := forkDEC(t, 5, 7)

	phys := fork.Machine().Phys()
	if !phys.Shared() {
		t.Fatal("forked phys does not alias the image")
	}
	// DMA sweep over clean shared frames: no traps to destroy, no copy.
	for pa := mem.PAddr(0); pa < 64<<10; pa += 4096 {
		fork.Machine().DMAWrite(pa, 512)
	}
	if !phys.Shared() {
		t.Fatal("trap-free DMA materialized the fork's tables")
	}

	// Arm a trap on a shared frame, then DMA over it: the write must
	// copy-on-write, destroy exactly that trap, and count the clear.
	target := mem.PAddr(phys.Bytes() - 8192) // Tapeworm-reserved: no kernel interference
	ctl := mem.NewController(phys)
	ctl.SetTrap(target, 16)
	if phys.Shared() {
		t.Fatal("arming a trap left the fork shared")
	}
	if !phys.Trapped(target, 16) {
		t.Fatal("trap not armed")
	}
	fork.Machine().DMAWrite(target, 64)
	if phys.Trapped(target, 16) {
		t.Fatal("DMA write left the trap standing")
	}
	if fork.Machine().Counters().DMAClears != 4 {
		t.Errorf("DMAClears = %d, want 4", fork.Machine().Counters().DMAClears)
	}
	if err := phys.CheckSummaries(); err != nil {
		t.Errorf("summaries after DMA on materialized fork: %v", err)
	}
}

// TestWindowGatesOnlyCounting: a measurement window changes which misses
// are counted and nothing else — execution, trap physics, and registration
// traffic are byte-identical with the window on or off.
func TestWindowGatesOnlyCounting(t *testing.T) {
	runWindowed := func(w Window, samp Sampling) (Stats, uint64, *mem.Image) {
		k := bootDEC(t, 21, 23)
		cfg := dmICache(4, cache.PhysIndexed)
		cfg.Sampling = samp
		cfg.Window = w
		tw := MustAttach(k, cfg)
		spawnWorkload(t, k, "espresso", 42, true)
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		return tw.Stats(), k.Machine().Cycles(), mem.CaptureImage(k.Machine().Phys())
	}
	for _, samp := range []Sampling{FullSampling(), {Num: 1, Den: 8}} {
		full, fullCyc, fullPhys := runWindowed(Window{}, samp)
		for _, w := range []Window{
			{WarmupInstr: 1},
			{WarmupInstr: 5000},
			{WarmupInstr: 5000, MeasureInstr: 20000},
			{WarmupInstr: 1 << 62}, // warm-up outlives the run: nothing measured
		} {
			st, cyc, phys := runWindowed(w, samp)
			if cyc != fullCyc {
				t.Errorf("%v/%v: window dilated execution: %d vs %d cycles", samp, w, cyc, fullCyc)
			}
			if !reflect.DeepEqual(phys, fullPhys) {
				t.Errorf("%v/%v: window changed the dense trap tables", samp, w)
			}
			if st.Registrations != full.Registrations || st.Removals != full.Removals ||
				st.HandlerCycles != full.HandlerCycles || st.SetupCycles != full.SetupCycles {
				t.Errorf("%v/%v: window changed trap physics: %+v vs %+v", samp, w, st, full)
			}
			if st.Misses > full.Misses {
				t.Errorf("%v/%v: windowed misses %d exceed full %d", samp, w, st.Misses, full.Misses)
			}
			if w.WarmupInstr == 1<<62 && st.Misses != 0 {
				t.Errorf("%v: misses counted inside an unreachable window: %d", samp, st.Misses)
			}
		}
	}
}

func TestWindowMeasuringBounds(t *testing.T) {
	w := Window{WarmupInstr: 100, MeasureInstr: 50}
	for _, tc := range []struct {
		instr uint64
		want  bool
	}{{0, false}, {99, false}, {100, true}, {149, true}, {150, false}} {
		if got := w.Measuring(tc.instr); got != tc.want {
			t.Errorf("Measuring(%d) = %v, want %v", tc.instr, got, tc.want)
		}
	}
	open := Window{WarmupInstr: 10}
	if !open.Measuring(1 << 62) {
		t.Error("open-ended window closed")
	}
	if (Window{}).String() != "full" || w.String() == "" {
		t.Error("window labels broken")
	}
	if err := (Window{WarmupInstr: ^uint64(0), MeasureInstr: 2}).Validate(); err == nil {
		t.Error("overflowing window accepted")
	}
}
