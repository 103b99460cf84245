package core

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"tapeworm/internal/cache"
	"tapeworm/internal/mem"
	"tapeworm/internal/rng"
)

// eccHolders counts the ECC members holding the word containing pa: the
// gang-side equivalent of a per-word trap reference count.
func eccHolders(g *Gang, pa mem.PAddr) int {
	n := 0
	for j, held := range g.maskAt(uint32(pa) / mem.WordBytes) {
		n += bits.OnesCount64(held & g.eccMask[j])
	}
	return n
}

// checkGangUnion verifies the gang's union trap state by brute force over
// all of physical memory (checkGangUnionPages).
func checkGangUnion(g *Gang) error { return checkGangUnionPages(g, 0, len(g.maskPages)) }

// checkGangUnionPages verifies the union trap state over mask pages
// [lo, hi): every word's member mask is exactly the OR of the members'
// intents, every word an ECC member holds carries the Tapeworm check bit,
// every word a breakpoint member holds is armed once per holder, and the
// invalid-page masks hold no zero entries and no detached member.
func checkGangUnionPages(g *Gang, lo, hi int) error {
	phys := g.m.Phys()
	mw := g.maskWords
	const pageChunks = maskPageWords / 64
	for pi := lo; pi < hi; pi++ {
		pg := g.maskPages[pi]
		want := make([]uint64, maskPageWords*mw)
		for i, tw := range g.members {
			if tw.intent == nil {
				continue
			}
			j, b := memberBit(i)
			for c, w := range tw.intent[pi*pageChunks : (pi+1)*pageChunks] {
				for ; w != 0; w &= w - 1 {
					want[(c<<6+bits.TrailingZeros64(w))*mw+j] |= b
				}
			}
		}
		if pg == nil {
			if slices.ContainsFunc(want, func(w uint64) bool { return w != 0 }) {
				return fmt.Errorf("mask page %d was never allocated, but members hold words in it", pi)
			}
			continue
		}
		for off := 0; off < maskPageWords; off++ {
			got, exp := pg[off*mw:off*mw+mw], want[off*mw:off*mw+mw]
			pa := mem.PAddr(pi<<maskPageShift+off) * mem.WordBytes
			if !slices.Equal(got, exp) {
				return fmt.Errorf("word %#x: mask %x, members' intents %x", pa, got, exp)
			}
			if anyIn(got, g.eccMask) && phys.ECCState(pa)&1 == 0 {
				return fmt.Errorf("word %#x: held by an ECC member but its Tapeworm bit is clear", pa)
			}
			bp := 0
			for j := range got {
				bp += bits.OnesCount64(got[j] & g.bpMask[j])
			}
			if refs := g.m.BreakpointRefs(pa); refs != bp {
				return fmt.Errorf("word %#x: %d breakpoint arm references, %d breakpoint holders", pa, refs, bp)
			}
		}
	}
	for j, inv := range g.invalidMask {
		for key, m := range inv {
			if m == 0 {
				return fmt.Errorf("invalid-page mask word %d keeps a zero entry for %+v", j, key)
			}
			if m&^g.liveMask[j] != 0 {
				return fmt.Errorf("invalid-page mask word %d for %+v holds detached members %#x", j, key, m&^g.liveMask[j])
			}
		}
	}
	return nil
}

// TestGangUnionProperty drives a 70-member gang (two mask words) with
// random arms, clears, detaches, DMA writes, true-error injections and
// scrubs over a few pages, checking the union invariants after every
// operation.
func TestGangUnionProperty(t *testing.T) {
	cfgs := make([]Config, 70)
	for i := range cfgs {
		cfgs[i] = dmICache(4<<(i%3), cache.PhysIndexed)
	}
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			k := bootDEC(t, 3, 3)
			g := MustAttachGang(k, cfgs)
			phys := k.Machine().Phys()
			r := rng.New(seed)
			base := mem.PAddr(phys.Bytes() - 4*4096) // four never-registered pages
			addr := func() (mem.PAddr, int) {
				return base + mem.PAddr(r.Intn(4*4096/4)*4), 1 + r.Intn(300)
			}
			liveMember := func() *Tapeworm {
				for {
					if i := r.Intn(len(cfgs)); g.live[i] {
						return g.members[i]
					}
				}
			}
			for step := 0; step < 400; step++ {
				pa, size := addr()
				if size > phys.Bytes()-int(pa) {
					size = phys.Bytes() - int(pa)
				}
				var op string
				switch n := r.Intn(100); {
				case n < 45:
					op = "arm"
					liveMember().mech.SetTrap(pa, size)
				case n < 80:
					op = "clear"
					liveMember().mech.ClearTrap(pa, size)
				case n < 88:
					op = "dma"
					k.Machine().DMAWrite(pa, size)
				case n < 93:
					op = "inject"
					phys.InjectError(pa, uint(r.Intn(39)))
				case n < 97:
					op = "scrub"
					phys.CorrectWord(pa)
				default:
					op = "detach"
					if err := g.Detach(liveMember()); err != nil {
						t.Fatal(err)
					}
				}
				if err := checkGangUnionPages(g, len(g.maskPages)-4, len(g.maskPages)); err != nil {
					t.Fatalf("step %d (%s %#x+%d): %v", step, op, pa, size, err)
				}
			}
			if err := checkGangUnion(g); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGangMissAllocatesNothing: a single-level cache member's steady-state
// miss — clear the trap, insert the line, re-arm the line it displaced —
// allocates nothing.
func TestGangMissAllocatesNothing(t *testing.T) {
	k := bootDEC(t, 3, 3)
	g := MustAttachGang(k, []Config{dmICache(4, cache.PhysIndexed)})
	tw := g.Members()[0]
	phys := k.Machine().Phys()
	// Two pages one cache size apart: their lines conflict set for set in
	// the direct-mapped 4 KB cache, so every miss evicts.
	pa0 := mem.PAddr(phys.Bytes() - 2*4096)
	pa1 := pa0 + 4096
	va0, va1 := mem.VAddr(0x400000), mem.VAddr(0x401000)
	tw.PageRegistered(1, pa0, va0, mem.IFetch)
	tw.PageRegistered(1, pa1, va1, mem.IFetch)
	trap := func() {
		if !g.ECCTrap(1, va0, pa0, mem.IFetch) || !g.ECCTrap(1, va1, pa1, mem.IFetch) {
			t.Fatal("armed line did not trap")
		}
	}
	trap() // warm up: first fills, mask pages, the per-task miss counter
	before := tw.Stats()
	if allocs := testing.AllocsPerRun(100, trap); allocs != 0 {
		t.Errorf("steady-state miss with eviction allocates %.1f times per pair of misses", allocs)
	}
	st := tw.Stats()
	if got := st.Misses - before.Misses; got != 2*101 {
		t.Errorf("counted %d misses, want %d", got, 2*101)
	}
	if err := checkGangUnion(g); err != nil {
		t.Error(err)
	}
}
