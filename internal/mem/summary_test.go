package mem

import (
	"testing"
	"testing/quick"
)

// TestSummariesMatchBitsets drives random trap and union-arming operations —
// including multi-word ranges that exercise the bulk chunk paths — and
// checks the two-level occupancy summaries against the backing arrays
// after every batch, plus TrapCount against a brute-force bit count.
func TestSummariesMatchBitsets(t *testing.T) {
	type op struct {
		Kind byte
		Word uint16
		Len  uint8
		Bit  uint8
	}
	f := func(ops []op) bool {
		p := NewPhys(16, 4096) // 64 KB = 16K words
		p.SetTrapDestroyedHook(func(PAddr) {})
		c := NewController(p)
		words := uint32(p.Bytes() / WordBytes)
		for _, o := range ops {
			pa := PAddr(uint32(o.Word) % words * WordBytes)
			size := (int(o.Len)%512 + 1) * WordBytes
			if int(pa)+size > p.Bytes() {
				size = p.Bytes() - int(pa)
			}
			switch o.Kind % 8 {
			case 0:
				c.SetTrap(pa, size)
			case 1:
				c.ClearTrap(pa, size)
			case 2:
				c.FlipTapewormBit(pa, size)
			case 3:
				p.InjectError(pa, uint(o.Bit%39))
			case 4:
				c.ArmWords(uint32(pa)/WordBytes/chunkWords, chunkMask(o.Len, o.Bit))
			case 5:
				c.DisarmWords(uint32(pa)/WordBytes/chunkWords, chunkMask(o.Len, o.Bit))
			case 6:
				p.CorrectWord(pa)
			case 7:
				c.SetTrap(pa, size)
				c.ClearTrap(pa, size/2+WordBytes)
			}
		}
		if err := p.CheckSummaries(); err != nil {
			t.Log(err)
			return false
		}
		brute := 0
		for w := uint32(0); w < words; w++ {
			if p.TrappedWord(PAddr(w) * WordBytes) {
				brute++
			}
		}
		return p.TrapCount() == brute
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// chunkMask spreads two random bytes over a 64-word chunk mask.
func chunkMask(a, b uint8) uint64 {
	return (uint64(a)<<8 | uint64(b)) * 0x9e3779b97f4a7c15
}

// TestBulkRangeOpsMatchWordOps checks that a multi-chunk range operation
// leaves exactly the same state as the same operation word by word.
func TestBulkRangeOpsMatchWordOps(t *testing.T) {
	build := func(bulk bool) *Phys {
		p := NewPhys(16, 4096)
		c := NewController(p)
		// A true error forces the per-word fallback inside its chunk.
		p.InjectError(0x2010, 7)
		base, size := PAddr(0x1ff0), 0x40c // spans several chunks incl. the error's
		if bulk {
			c.SetTrap(base, size)
			c.FlipTapewormBit(base+0x100, 0x80)
			c.ClearTrap(base+4, size-8)
		} else {
			for off := 0; off < size; off += WordBytes {
				c.SetTrap(base+PAddr(off), WordBytes)
			}
			for off := 0; off < 0x80; off += WordBytes {
				c.FlipTapewormBit(base+0x100+PAddr(off), WordBytes)
			}
			for off := 4; off < size-4; off += WordBytes {
				c.ClearTrap(base+PAddr(off), WordBytes)
			}
		}
		return p
	}
	a, b := build(true), build(false)
	if err := a.CheckSummaries(); err != nil {
		t.Fatal(err)
	}
	for w := uint32(0); w < uint32(a.Bytes()/WordBytes); w++ {
		pa := PAddr(w) * WordBytes
		if a.TrappedWord(pa) != b.TrappedWord(pa) || a.ECCState(pa) != b.ECCState(pa) {
			t.Fatalf("word %#x: bulk (trap %v ecc %#x) != word-by-word (trap %v ecc %#x)",
				pa, a.TrappedWord(pa), a.ECCState(pa), b.TrappedWord(pa), b.ECCState(pa))
		}
	}
	aset, aclr := a.Stats()
	bset, bclr := b.Stats()
	if aset != bset || aclr != bclr {
		t.Fatalf("stats diverge: bulk %d/%d vs word %d/%d", aset, aclr, bset, bclr)
	}
}
