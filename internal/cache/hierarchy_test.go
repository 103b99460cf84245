package cache

import (
	"testing"
	"testing/quick"

	"tapeworm/internal/mem"
	"tapeworm/internal/rng"
)

func TestSplitRouting(t *testing.T) {
	icfg := Config{Size: 1024, LineSize: 16, Assoc: 1}
	dcfg := Config{Size: 2048, LineSize: 16, Assoc: 2}
	s, err := NewSplit(icfg, dcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Access(1, 0x100, mem.IFetch)
	s.Access(1, 0x100, mem.Load)
	s.Access(1, 0x100, mem.Store)
	if _, im := s.I.Stats(); im != 1 {
		t.Errorf("icache misses = %d, want 1", im)
	}
	dh, dm := s.D.Stats()
	if dm != 1 || dh != 1 {
		t.Errorf("dcache hits/misses = %d/%d, want 1/1", dh, dm)
	}
	if s.Side(mem.IFetch) != s.I || s.Side(mem.Load) != s.D || s.Side(mem.Store) != s.D {
		t.Error("Side routing wrong")
	}
}

func TestSplitPropagatesConfigErrors(t *testing.T) {
	bad := Config{Size: 1000, LineSize: 16, Assoc: 1}
	good := Config{Size: 1024, LineSize: 16, Assoc: 1}
	if _, err := NewSplit(bad, good, nil); err == nil {
		t.Error("bad icache config accepted")
	}
	if _, err := NewSplit(good, bad, nil); err == nil {
		t.Error("bad dcache config accepted")
	}
}

func newTwoLevel(t *testing.T) *TwoLevel {
	t.Helper()
	tl, err := NewTwoLevel(
		Config{Size: 256, LineSize: 16, Assoc: 1},
		Config{Size: 1024, LineSize: 16, Assoc: 2},
		nil)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

func TestTwoLevelValidation(t *testing.T) {
	l1 := Config{Size: 1024, LineSize: 16, Assoc: 1}
	if _, err := NewTwoLevel(l1, Config{Size: 512, LineSize: 16, Assoc: 1}, nil); err == nil {
		t.Error("L2 smaller than L1 accepted")
	}
	if _, err := NewTwoLevel(l1, Config{Size: 2048, LineSize: 8, Assoc: 1}, nil); err == nil {
		t.Error("L2 line smaller than L1 line accepted")
	}
	bad := l1
	bad.Indexing = VirtIndexed
	if _, err := NewTwoLevel(bad, Config{Size: 2048, LineSize: 16, Assoc: 1}, nil); err == nil {
		t.Error("mixed indexing accepted")
	}
}

func TestTwoLevelHitLevels(t *testing.T) {
	tl := newTwoLevel(t)
	if lvl, _, _ := tl.AccessDetail(1, 0x100); lvl != MissAll {
		t.Fatalf("cold access level = %v", lvl)
	}
	if lvl, _, _ := tl.AccessDetail(1, 0x104); lvl != HitL1 {
		t.Fatalf("warm access level = %v", lvl)
	}
	// Evict 0x100 from the direct-mapped L1 (16 sets) with a conflicting
	// address; L2 (2-way, 32 sets) keeps it.
	tl.AccessDetail(1, 0x100+256)
	if lvl, _, _ := tl.AccessDetail(1, 0x100); lvl != HitL2 {
		t.Fatalf("L1-evicted line level = %v, want L2 hit", lvl)
	}
}

func TestTwoLevelInclusion(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		tl, err := NewTwoLevel(
			Config{Size: 128, LineSize: 16, Assoc: 1},
			Config{Size: 512, LineSize: 16, Assoc: 2},
			nil)
		if err != nil {
			return false
		}
		for i := 0; i < 2000; i++ {
			tl.AccessDetail(1, uint32(r.Intn(1<<14)))
			if i%97 == 0 {
				if err := tl.CheckInclusion(); err != nil {
					return false
				}
			}
		}
		return tl.CheckInclusion() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestTwoLevelEvictionsSurface(t *testing.T) {
	// Fill L2 completely within one set and confirm evictions are reported
	// (Tapeworm needs them to set new traps).
	tl := newTwoLevel(t)
	l2sets := tl.L2.NumSets()
	stride := uint32(l2sets * 16)
	sawEviction := false
	for i := uint32(0); i < 8; i++ {
		_, k, evicted := tl.AccessDetail(1, i*stride)
		if evicted {
			sawEviction = true
			if tl.Contains(k.Task, k.Addr) {
				t.Fatalf("evicted line %+v still resident", k)
			}
		}
	}
	if !sawEviction {
		t.Fatal("filling a 2-way set 8 deep never evicted")
	}
}

func TestLevelString(t *testing.T) {
	if HitL1.String() != "L1" || HitL2.String() != "L2" || MissAll.String() != "miss" {
		t.Error("Level labels wrong")
	}
}

func TestTLBValidation(t *testing.T) {
	bads := []TLBConfig{
		{Entries: 0, PageSize: 4096},
		{Entries: 63, PageSize: 4096},
		{Entries: 64, PageSize: 1000},
		{Entries: 64, PageSize: 4096, Assoc: 3},
		{Entries: 64, PageSize: 4096, Reserved: 64},
		{Entries: 64, PageSize: 4096, Reserved: -1},
	}
	for i, b := range bads {
		if err := b.Validate(); err == nil {
			t.Errorf("bad TLB config %d accepted: %+v", i, b)
		}
	}
	if err := R3000TLB().Validate(); err != nil {
		t.Fatalf("R3000 TLB config invalid: %v", err)
	}
}

func TestTLBMissThenHit(t *testing.T) {
	tlb := MustNewTLB(R3000TLB(), rng.New(1))
	if hit, _, _ := tlb.Access(1, 0x1234); hit {
		t.Fatal("cold TLB should miss")
	}
	if hit, _, _ := tlb.Access(1, 0x1FFF); !hit {
		t.Fatal("same page should hit")
	}
	if hit, _, _ := tlb.Access(1, 0x2000); hit {
		t.Fatal("next page should miss")
	}
	if hit, _, _ := tlb.Access(2, 0x1234); hit {
		t.Fatal("TLB entries are per-task")
	}
	hits, misses := tlb.Stats()
	if hits != 1 || misses != 3 {
		t.Fatalf("stats %d/%d", hits, misses)
	}
}

func TestTLBCapacityEviction(t *testing.T) {
	cfg := TLBConfig{Entries: 4, PageSize: 4096, Replace: LRU}
	tlb := MustNewTLB(cfg, nil)
	for p := 0; p < 5; p++ {
		tlb.Access(1, mem.VAddr(p*4096))
	}
	if tlb.Len() != 4 {
		t.Fatalf("TLB holds %d entries, want 4", tlb.Len())
	}
	if tlb.Probe(1, 0) {
		t.Fatal("LRU TLB should have evicted page 0")
	}
}

func TestTLBWiredEntriesSurvive(t *testing.T) {
	cfg := TLBConfig{Entries: 4, PageSize: 4096, Replace: LRU, Reserved: 2}
	tlb := MustNewTLB(cfg, nil)
	if err := tlb.Wire(mem.KernelTask, 0x0000); err != nil {
		t.Fatal(err)
	}
	// Thrash with many user pages; the wired kernel page must remain.
	for p := 1; p < 50; p++ {
		tlb.Access(1, mem.VAddr(p*4096))
	}
	if !tlb.Probe(mem.KernelTask, 0x0000) {
		t.Fatal("wired entry was evicted")
	}
}

func TestTLBWireLimit(t *testing.T) {
	cfg := TLBConfig{Entries: 8, PageSize: 4096, Reserved: 1}
	tlb := MustNewTLB(cfg, nil)
	if err := tlb.Wire(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := tlb.Wire(0, 0); err != nil {
		t.Fatal("re-wiring same page should be a no-op")
	}
	if err := tlb.Wire(0, 4096); err == nil {
		t.Fatal("wiring beyond Reserved should fail")
	}
}

func TestTLBInvalidate(t *testing.T) {
	tlb := MustNewTLB(TLBConfig{Entries: 8, PageSize: 4096}, nil)
	tlb.Access(1, 0x1000)
	tlb.Access(1, 0x2000)
	tlb.Access(2, 0x1000)
	if !tlb.InvalidatePage(1, 0x1000) {
		t.Fatal("InvalidatePage missed")
	}
	removed := tlb.InvalidateTask(1)
	if len(removed) != 1 {
		t.Fatalf("InvalidateTask removed %d, want 1", len(removed))
	}
	if !tlb.Probe(2, 0x1000) {
		t.Fatal("other task's translation removed")
	}
	tlb.Flush()
	if tlb.Len() != 0 {
		t.Fatal("flush incomplete")
	}
}

func TestTLBInsertMatchesAccessMissPath(t *testing.T) {
	a := MustNewTLB(TLBConfig{Entries: 4, PageSize: 4096, Replace: LRU}, nil)
	b := MustNewTLB(TLBConfig{Entries: 4, PageSize: 4096, Replace: LRU}, nil)
	pages := []mem.VAddr{0x0000, 0x1000, 0x2000, 0x0000, 0x3000, 0x4000}
	for _, va := range pages {
		hit, d1, e1 := a.Access(1, va)
		if !hit {
			d2, e2 := b.Insert(1, va)
			if d1 != d2 || e1 != e2 {
				t.Fatalf("Insert diverged at %#x", va)
			}
		} else {
			b.Insert(1, va)
		}
	}
}
