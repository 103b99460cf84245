package mem

import "testing"

func newRefPhys(t *testing.T) (*Phys, *Controller) {
	t.Helper()
	p := NewPhys(64, 4096)
	p.EnableTrapRefs()
	return p, NewController(p)
}

func TestTrapRefOverlappingSetClear(t *testing.T) {
	p, c := newRefPhys(t)
	pa := PAddr(0x1000)

	if !c.AddTrapRef(pa) {
		t.Fatal("first AddTrapRef refused")
	}
	set0, _ := p.Stats()
	if set0 != 1 || !p.TrappedWord(pa) {
		t.Fatalf("first arm: set=%d trapped=%v", set0, p.TrappedWord(pa))
	}
	if !c.AddTrapRef(pa) {
		t.Fatal("second AddTrapRef refused")
	}
	if set1, _ := p.Stats(); set1 != 1 {
		t.Fatalf("second arm flipped the bit again: set=%d", set1)
	}
	if got := p.TrapRefCount(pa); got != 2 {
		t.Fatalf("refcount %d, want 2", got)
	}

	// Clear while the other holds: trap survives the first release.
	c.ReleaseTrapRef(pa)
	if !p.TrappedWord(pa) {
		t.Fatal("trap destroyed while a reference remains")
	}
	if _, cleared := p.Stats(); cleared != 0 {
		t.Fatal("first release flipped the physical bit")
	}
	c.ReleaseTrapRef(pa)
	if p.TrappedWord(pa) || p.TrapRefCount(pa) != 0 {
		t.Fatal("trap survived the last release")
	}
	if _, cleared := p.Stats(); cleared != 1 {
		t.Fatal("last release did not flip the physical bit once")
	}

	// Releasing an unheld word is a no-op, not an underflow.
	c.ReleaseTrapRef(pa)
	if p.TrapRefCount(pa) != 0 {
		t.Fatal("release below zero")
	}
}

func TestTrapRefRefusesTrueError(t *testing.T) {
	p, c := newRefPhys(t)
	pa := PAddr(0x2000)
	p.InjectError(pa, 3) // a real single-bit error, not the Tapeworm bit
	if c.AddTrapRef(pa) {
		t.Fatal("AddTrapRef armed a word carrying a true error")
	}
	if p.TrapRefCount(pa) != 0 {
		t.Fatal("refused arm still recorded a reference")
	}
}

func TestTrapRefAdoptsOrphan(t *testing.T) {
	p, c := newRefPhys(t)
	pa := PAddr(0x3000)
	c.SetTrap(pa, WordBytes) // unrefcounted arm (legacy path)
	set0, _ := p.Stats()
	if !c.AddTrapRef(pa) {
		t.Fatal("AddTrapRef refused an orphaned Tapeworm trap")
	}
	if set1, _ := p.Stats(); set1 != set0 {
		t.Fatal("adopting an orphan flipped the bit again")
	}
	if p.TrapRefCount(pa) != 1 {
		t.Fatalf("refcount %d after adoption, want 1", p.TrapRefCount(pa))
	}
}

func TestTrapRefDestructionZeroesCountAndFiresHook(t *testing.T) {
	p, c := newRefPhys(t)
	var destroyed []PAddr
	p.SetTrapDestroyedHook(func(pa PAddr) { destroyed = append(destroyed, pa) })

	pa := PAddr(0x4000)
	c.AddTrapRef(pa)
	c.AddTrapRef(pa)

	// CorrectWord is the scrubbing path: hardware destroys the trap no
	// matter how many simulators hold it.
	p.CorrectWord(pa)
	if p.TrappedWord(pa) {
		t.Fatal("trap survived CorrectWord")
	}
	if p.TrapRefCount(pa) != 0 {
		t.Fatalf("refcount %d after destruction, want 0", p.TrapRefCount(pa))
	}
	if len(destroyed) != 1 || destroyed[0] != pa {
		t.Fatalf("destroyed-hook calls: %v, want [%#x]", destroyed, pa)
	}

	// A silent controller clear (DMA write path) behaves the same way.
	pb := PAddr(0x5000)
	c.AddTrapRef(pb)
	c.ClearTrap(pb, WordBytes)
	if p.TrapRefCount(pb) != 0 {
		t.Fatalf("refcount %d after ClearTrap destruction, want 0", p.TrapRefCount(pb))
	}
	if len(destroyed) != 2 || destroyed[1] != pb {
		t.Fatalf("destroyed-hook calls: %v, want second %#x", destroyed, pb)
	}

	// The freed word can be re-armed cleanly.
	if !c.AddTrapRef(pb) {
		t.Fatal("re-arm after destruction refused")
	}
	if p.TrapRefCount(pb) != 1 || !p.TrappedWord(pb) {
		t.Fatal("re-arm after destruction did not take")
	}
}

func TestTrapRefRequiresEnable(t *testing.T) {
	p := NewPhys(4, 4096)
	c := NewController(p)
	defer func() {
		if recover() == nil {
			t.Fatal("AddTrapRef without EnableTrapRefs did not panic")
		}
	}()
	c.AddTrapRef(0)
}
