package mem

import "testing"

// Union arming: ArmWords and DisarmWords are the chunk-mask calls a gang
// makes when a word gains its first holder and loses its last one.

func newArmPhys(t *testing.T) (*Phys, *Controller) {
	t.Helper()
	p := NewPhys(64, 4096)
	return p, NewController(p)
}

func TestArmDisarmWordsFlipOncePerWord(t *testing.T) {
	p, c := newArmPhys(t)
	const ch = 0x1000 / WordBytes / chunkWords
	m := uint64(0xf0f0)
	if refused := c.ArmWords(ch, m); refused != 0 {
		t.Fatalf("clean words refused: %#x", refused)
	}
	if set, _ := p.Stats(); set != 8 {
		t.Fatalf("arming 8 words counted %d sets", set)
	}
	for w := uint32(0); w < chunkWords; w++ {
		pa := PAddr(ch*chunkWords+w) * WordBytes
		if p.TrappedWord(pa) != (m&(1<<w) != 0) || (p.TrappedWord(pa) && p.Classify(pa) != SynTapeworm) {
			t.Fatalf("word %d: trapped %v, syndrome %v", w, p.TrappedWord(pa), p.Classify(pa))
		}
	}
	c.DisarmWords(ch, 0xf000)
	if _, cleared := p.Stats(); cleared != 4 || p.TrapCount() != 4 {
		t.Fatalf("disarming 4 words: cleared %d, %d still trapped", cleared, p.TrapCount())
	}
	c.DisarmWords(ch, 0xffff) // the four still armed, plus four already clear
	if _, cleared := p.Stats(); cleared != 8 || p.TrapCount() != 0 {
		t.Fatalf("disarm of clear words counted flips: cleared %d, %d trapped", cleared, p.TrapCount())
	}
	if err := p.CheckSummaries(); err != nil {
		t.Fatal(err)
	}
}

func TestTrapRefRefusesTrueError(t *testing.T) {
	p, c := newArmPhys(t)
	pa := PAddr(0x2000)
	ch := uint32(pa) / WordBytes / chunkWords
	p.InjectError(pa, 3)   // a real single-bit error, not the Tapeworm bit
	p.InjectError(pa+4, 0) // an orphaned Tapeworm bit...
	p.InjectError(pa+4, 5) // ...under a true error: double-bit
	if refused := c.ArmWords(ch, 0b111); refused != 0b011 {
		t.Fatalf("refused %#b, want the two words carrying true errors (0b11)", refused)
	}
	if got := p.ECCState(pa); got != 1<<3 {
		t.Fatalf("refused word's ECC state %#x, want only the true error", got)
	}
	if p.Classify(pa+8) != SynTapeworm {
		t.Fatal("the clean word beside the errors was not armed")
	}
	if set, _ := p.Stats(); set != 1 {
		t.Fatalf("%d sets, want 1", set)
	}
}

func TestTrapRefAdoptsOrphan(t *testing.T) {
	p, c := newArmPhys(t)
	pa := PAddr(0x3000)
	c.SetTrap(pa, WordBytes) // a trap no gang member holds
	set0, _ := p.Stats()
	if refused := c.ArmWords(uint32(pa)/WordBytes/chunkWords, 1); refused != 0 {
		t.Fatal("ArmWords refused an orphaned Tapeworm trap")
	}
	if set1, _ := p.Stats(); set1 != set0 {
		t.Fatal("adopting an orphan flipped the bit again")
	}
	if p.Classify(pa) != SynTapeworm {
		t.Fatal("adopted orphan lost its trap")
	}
}

// TestTrapRefDestructionFiresHook: every hardware path that destroys a
// Tapeworm bit reports it to the destroyed hook; the holders' own disarm
// does not.
func TestTrapRefDestructionFiresHook(t *testing.T) {
	p, c := newArmPhys(t)
	var destroyed []PAddr
	p.SetTrapDestroyedHook(func(pa PAddr) { destroyed = append(destroyed, pa) })
	arm := func(pa PAddr, words uint) {
		t.Helper()
		if c.ArmWords(uint32(pa)/WordBytes/chunkWords, (1<<words-1)<<(uint32(pa)/WordBytes%chunkWords)) != 0 {
			t.Fatal("clean words refused")
		}
	}
	want := func(label string, pas ...PAddr) {
		t.Helper()
		if len(destroyed) != len(pas) {
			t.Fatalf("%s: hook calls %#x, want %#x", label, destroyed, pas)
		}
		for i := range pas {
			if destroyed[i] != pas[i] {
				t.Fatalf("%s: hook calls %#x, want %#x", label, destroyed, pas)
			}
		}
		destroyed = destroyed[:0]
	}

	pa := PAddr(0x4000)
	arm(pa, 4)
	c.DisarmWords(uint32(pa)/WordBytes/chunkWords, 0b11)
	want("disarm")
	// CorrectWord is the scrubbing path: hardware destroys the trap no
	// matter who holds it.
	p.CorrectWord(pa + 8)
	want("scrub", pa+8)
	// A silent controller clear — the DMA write and no-allocate store
	// write-around path — reports every word it clears, bulk or not.
	c.ClearTrap(pa, 16)
	want("clear", pa+12)
	arm(pa, 8)
	c.ClearTrap(pa+4, 24)
	want("bulk clear", pa+4, pa+8, pa+12, pa+16, pa+20, pa+24)
	c.FlipTapewormBit(pa, 8)
	want("flip", pa)
	// A true error elsewhere forces the per-word paths.
	p.InjectError(0x8000, 9)
	arm(pa+0x40, 2)
	c.ClearTrap(pa+0x40, 8)
	want("per-word clear", pa+0x40, pa+0x44)
	// Injecting over the Tapeworm bit clears it; injecting any other bit
	// destroys nothing.
	arm(pa+0x80, 1)
	p.InjectError(pa+0x80, 4)
	want("inject beside")
	p.InjectError(pa+0x80, 0)
	want("inject over", pa+0x80)
	// Without a hook, destruction is silent.
	p.SetTrapDestroyedHook(nil)
	arm(pa+0x100, 1)
	p.CorrectWord(pa + 0x100)
	want("no hook")
	if err := p.CheckSummaries(); err != nil {
		t.Fatal(err)
	}
}

func TestDisarmWordsPreservesTrueError(t *testing.T) {
	p, c := newArmPhys(t)
	pa := PAddr(0x5000)
	ch := uint32(pa) / WordBytes / chunkWords
	c.ArmWords(ch, 1)
	p.InjectError(pa, 6) // a true error lands on a held word: double-bit
	if p.Classify(pa) != SynDoubleBit {
		t.Fatalf("syndrome %v, want double-bit", p.Classify(pa))
	}
	c.DisarmWords(ch, 1)
	if got := p.ECCState(pa); got != 1<<6 {
		t.Fatalf("after disarm ECC state %#x, want only the true error", got)
	}
	if !p.TrappedWord(pa) {
		t.Fatal("disarm masked a genuine fault")
	}
	if err := p.CheckSummaries(); err != nil {
		t.Fatal(err)
	}
}
