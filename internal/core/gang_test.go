package core

import (
	"reflect"
	"runtime"
	"testing"

	"tapeworm/internal/cache"
	"tapeworm/internal/kernel"
	"tapeworm/internal/mach"
	"tapeworm/internal/mem"
)

// gangConfigs is a deliberately diverse panel: sizes, associativities,
// line sizes, indexing, sampling degrees, and a two-level hierarchy.
func gangConfigs() []Config {
	l2 := cache.Config{Size: 64 << 10, LineSize: 32, Assoc: 2, Indexing: cache.PhysIndexed}
	return []Config{
		{Mode: ModeICache,
			Cache:    cache.Config{Size: 4 << 10, LineSize: 16, Assoc: 1, Indexing: cache.PhysIndexed},
			Sampling: FullSampling()},
		{Mode: ModeICache,
			Cache:    cache.Config{Size: 16 << 10, LineSize: 32, Assoc: 2, Indexing: cache.VirtIndexed},
			Sampling: FullSampling()},
		{Mode: ModeICache,
			Cache:    cache.Config{Size: 8 << 10, LineSize: 16, Assoc: 1, Indexing: cache.VirtIndexed},
			Sampling: Sampling{Num: 1, Den: 8}},
		{Mode: ModeICache,
			Cache:    cache.Config{Size: 8 << 10, LineSize: 16, Assoc: 4, Indexing: cache.PhysIndexed},
			Sampling: FullSampling(),
			L2:       &l2},
	}
}

type memberResult struct {
	stats  Stats
	byTask map[mem.TaskID]uint64
	ledger uint64
}

// runGangOf boots a fresh DECstation, attaches cfgs as one gang, runs the
// workload to completion, and returns per-member results plus the
// machine's final cycle count.
func runGangOf(t *testing.T, cfgs []Config, wl string, seed uint64) ([]memberResult, uint64) {
	t.Helper()
	return runGangOn(t, bootDEC(t, 11, 13), cfgs, wl, seed)
}

// runGangOn is runGangOf on the freshly booted kernel k.
func runGangOn(t *testing.T, k *kernel.Kernel, cfgs []Config, wl string, seed uint64) ([]memberResult, uint64) {
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
	return out, k.Machine().Cycles()
}

// TestGangByteIdentity is the tentpole invariant: every member of a
// gang-of-N produces statistics identical to its own gang-of-1 run, and
// the shared execution stream (machine cycles) is identical regardless of
// which simulators ride on it.
func TestGangByteIdentity(t *testing.T) {
	cfgs := gangConfigs()
	ganged, gangCycles := runGangOf(t, cfgs, "espresso", 42)
	for i, cfg := range cfgs {
		solo, soloCycles := runGangOf(t, []Config{cfg}, "espresso", 42)
		if !reflect.DeepEqual(solo[0], ganged[i]) {
			t.Errorf("member %d diverged from solo run:\nsolo:   %+v\nganged: %+v",
				i, solo[0], ganged[i])
		}
		if soloCycles != gangCycles {
			t.Errorf("member %d: shared stream dilated: solo %d cycles, ganged %d",
				i, soloCycles, gangCycles)
		}
		if ganged[i].stats.Misses == 0 {
			t.Errorf("member %d counted no misses", i)
		}
	}
}

// TestGangBreakpointByteIdentity runs the invariant on the Gateway 486,
// whose members arm instruction breakpoints: each member of a gang of four
// matches its gang-of-1 run over the same shared stream.
func TestGangBreakpointByteIdentity(t *testing.T) {
	// gangConfigs' caches at a quarter of their size, so that espresso
	// keeps displacing lines, and members keep re-arming them, all run.
	cfgs := gangConfigs()
	for i := range cfgs {
		cfgs[i].Cache.Size /= 4
	}
	for _, wl := range []string{"espresso", "sdet"} {
		t.Run(wl, func(t *testing.T) {
			k := boot486(t, 11, 13)
			ganged, gangCycles := runGangOn(t, k, cfgs, wl, 42)
			t.Logf("%d breakpoint arms", k.Machine().Counters().BreakpointArms)
			for i, cfg := range cfgs {
				solo, soloCycles := runGangOn(t, boot486(t, 11, 13), []Config{cfg}, wl, 42)
				if !reflect.DeepEqual(solo[0], ganged[i]) {
					t.Errorf("member %d diverged from solo run:\nsolo:   %+v\nganged: %+v",
						i, solo[0], ganged[i])
				}
				if soloCycles != gangCycles {
					t.Errorf("member %d: shared stream dilated: solo %d cycles, ganged %d",
						i, soloCycles, gangCycles)
				}
				if ganged[i].stats.Misses == 0 {
					t.Errorf("member %d counted no misses", i)
				}
			}
		})
	}
}

// TestAttachGangAllocation attaches a 96-point I-cache grid (sizes 1–32
// KB, associativities 1–8, lines 16–128 B) to an 8192-frame DECstation:
// it must allocate less than 8 MiB, since the gang's member masks are
// allocated a page at a time as members first hold words. Not parallel:
// TotalAlloc counts every goroutine's allocations.
func TestAttachGangAllocation(t *testing.T) {
	var cfgs []Config
	for _, size := range []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10} {
		for _, assoc := range []int{1, 2, 4, 8} {
			for _, line := range []int{16, 32, 64, 128} {
				cfgs = append(cfgs, Config{Mode: ModeICache,
					Cache:    cache.Config{Size: size, LineSize: line, Assoc: assoc, Indexing: cache.PhysIndexed},
					Sampling: FullSampling()})
			}
		}
	}
	cfg := kernel.DefaultConfig(mach.DECstation5000_200(8192), 3)
	cfg.PageSeed = 3
	k := kernel.MustBoot(cfg)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	MustAttachGang(k, cfgs)
	runtime.ReadMemStats(&after)
	if mib := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mib >= 8 {
		t.Errorf("attaching %d members allocated %.1f MiB, want less than 8", len(cfgs), mib)
	} else {
		t.Logf("attaching %d members allocated %.1f MiB", len(cfgs), mib)
	}
}

// TestGangTLBByteIdentity runs the same invariant for TLB-mode members,
// whose traps share page-valid bits through the union refcounts.
func TestGangTLBByteIdentity(t *testing.T) {
	cfgs := []Config{
		{Mode: ModeTLB,
			TLB:      cache.TLBConfig{Entries: 8, PageSize: 4096, Replace: cache.LRU},
			Sampling: FullSampling()},
		{Mode: ModeTLB,
			TLB:      cache.TLBConfig{Entries: 64, PageSize: 4096, Replace: cache.Random},
			Sampling: FullSampling()},
		{Mode: ModeTLB,
			TLB:      cache.TLBConfig{Entries: 16, Assoc: 2, PageSize: 4096, Replace: cache.LRU},
			Sampling: Sampling{Num: 1, Den: 2}},
	}
	ganged, gangCycles := runGangOf(t, cfgs, "espresso", 42)
	for i, cfg := range cfgs {
		solo, soloCycles := runGangOf(t, []Config{cfg}, "espresso", 42)
		if !reflect.DeepEqual(solo[0], ganged[i]) {
			t.Errorf("TLB member %d diverged from solo run:\nsolo:   %+v\nganged: %+v",
				i, solo[0], ganged[i])
		}
		if soloCycles != gangCycles {
			t.Errorf("TLB member %d: shared stream dilated: solo %d, ganged %d",
				i, soloCycles, gangCycles)
		}
	}
}

// TestGangMixedModes gangs cache and TLB simulators over one execution:
// the two trap mechanisms (ECC bits, page valid bits) coexist without
// cross-talk.
func TestGangMixedModes(t *testing.T) {
	cfgs := []Config{
		{Mode: ModeICache,
			Cache:    cache.Config{Size: 4 << 10, LineSize: 16, Assoc: 1, Indexing: cache.PhysIndexed},
			Sampling: FullSampling()},
		{Mode: ModeTLB,
			TLB:      cache.TLBConfig{Entries: 16, PageSize: 4096, Replace: cache.LRU},
			Sampling: FullSampling()},
	}
	ganged, _ := runGangOf(t, cfgs, "eqntott", 7)
	for i, cfg := range cfgs {
		solo, _ := runGangOf(t, []Config{cfg}, "eqntott", 7)
		if !reflect.DeepEqual(solo[0], ganged[i]) {
			t.Errorf("mixed member %d diverged:\nsolo:   %+v\nganged: %+v",
				i, solo[0], ganged[i])
		}
	}
}

// TestGangSharedWordRefcounts exercises the shared-word edge cases
// directly: two members arming the same word, one clearing while the other
// holds, and the physical bit flipping only when the first holder arrives
// and the last one leaves. The holder count is read from the member masks.
func TestGangSharedWordRefcounts(t *testing.T) {
	k := bootDEC(t, 3, 3)
	g := MustAttachGang(k, gangConfigs()[:2])
	a, b := g.Members()[0], g.Members()[1]
	ma, mb := a.mech.(*gangMech), b.mech.(*gangMech)
	phys := k.Machine().Phys()

	// Pick a word inside the Tapeworm-reserved frames: never registered,
	// so the workload cannot interfere.
	pa := mem.PAddr(phys.Bytes() - 4096)

	ma.SetTrap(pa, 16)
	setA, _ := phys.Stats()
	mb.SetTrap(pa, 16) // overlapping arm: two holders, one physical set
	if got := holders(g, pa); got != 2 {
		t.Fatalf("%d holders after two arms, want 2", got)
	}
	set0, cleared0 := phys.Stats()
	if set0 != setA {
		t.Fatalf("second holder's arm flipped %d bits", set0-setA)
	}

	ma.ClearTrap(pa, 16) // clear while the other holds
	if !phys.Trapped(pa, 16) {
		t.Fatal("word untrapped while another member still holds it")
	}
	if a.trapArmed(pa, 16) {
		t.Fatal("member A still considers the word armed after its clear")
	}
	if !b.trapArmed(pa, 16) {
		t.Fatal("member B lost its trap to member A's clear")
	}
	ma.ClearTrap(pa, 16) // double clear: must not release B's hold
	if got := holders(g, pa); got != 1 {
		t.Fatalf("%d holders after A's redundant clear, want 1", got)
	}

	mb.ClearTrap(pa, 16) // last holder releases: physical trap goes
	if phys.Trapped(pa, 16) || holders(g, pa) != 0 {
		t.Fatal("trap survived the last holder's release")
	}
	set1, cleared1 := phys.Stats()
	if set1 != set0 || cleared1 != cleared0+4 {
		t.Errorf("physical flips: set %d->%d cleared %d->%d; want set unchanged, cleared +4",
			set0, set1, cleared0, cleared1)
	}
}

// TestGangUnionPageValid checks the TLB-side union: the physical valid bit
// (and with it mach.InvalidatePage, the PR 3 micro-cache protocol) flips
// only when the count of members holding the page invalid crosses zero.
func TestGangUnionPageValid(t *testing.T) {
	cfgs := []Config{
		{Mode: ModeTLB,
			TLB:      cache.TLBConfig{Entries: 8, PageSize: 4096, Replace: cache.LRU},
			Sampling: FullSampling()},
		{Mode: ModeTLB,
			TLB:      cache.TLBConfig{Entries: 64, PageSize: 4096, Replace: cache.LRU},
			Sampling: FullSampling()},
	}
	k := bootDEC(t, 5, 5)
	g := MustAttachGang(k, cfgs)
	spawnWorkload(t, k, "eqntott", 9, true)
	if err := k.Run(3000); err != nil { // stop mid-run: pages still mapped
		t.Fatal(err)
	}
	a, b := g.Members()[0], g.Members()[1]

	// Find a mapping both members track, currently valid for both.
	var (
		key   vkey
		found bool
	)
	for kk := range a.mapVP {
		if kk.t == mem.KernelTask || g.holdsInvalid(a, kk) || g.holdsInvalid(b, kk) {
			continue
		}
		if _, ok := b.mapVP[kk]; ok {
			key, found = kk, true
			break
		}
	}
	if !found {
		t.Fatal("no shared valid mapping found mid-run")
	}
	va := mem.VAddr(key.vpn) << g.pageBits
	m := k.Machine()

	inv0 := m.PageInvalidations()
	step := func(tw *Tapeworm, valid bool, wantFlip bool, label string) {
		before := m.PageInvalidations()
		if err := g.memberSetPageValid(tw, key.t, va, valid); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		flipped := m.PageInvalidations() != before
		if flipped != wantFlip {
			t.Errorf("%s: InvalidatePage fired=%v, want %v", label, flipped, wantFlip)
		}
	}
	step(a, false, true, "A invalidates (union 0->1)")
	step(b, false, false, "B invalidates (union 1->2)")
	step(a, true, false, "A revalidates (union 2->1)")
	if _, valid := k.Task(key.t).Space().Translate(va); valid {
		t.Error("pte became valid while B still holds the page invalid")
	}
	step(b, true, true, "B revalidates (union 1->0)")
	if _, valid := k.Task(key.t).Space().Translate(va); !valid {
		t.Error("pte still invalid after the last holder released")
	}
	if m.PageInvalidations() != inv0+2 {
		t.Errorf("union cycle caused %d invalidations, want 2", m.PageInvalidations()-inv0)
	}
}
