package core

import (
	"fmt"
	"math/bits"
	"testing"

	"tapeworm/internal/cache"
	"tapeworm/internal/mem"
	"tapeworm/internal/rng"
)

// holders counts the members holding the word containing pa.
func holders(g *Gang, pa mem.PAddr) int {
	n := 0
	for _, held := range g.maskAt(uint32(pa) / mem.WordBytes) {
		n += bits.OnesCount64(held)
	}
	return n
}

// checkGangUnion verifies the gang's union trap state by brute force over
// all of physical memory (checkGangUnionPages).
func checkGangUnion(g *Gang) error { return checkGangUnionPages(g, 0, len(g.maskPages)) }

// checkGangUnionPages verifies the union trap state over mask pages
// [lo, hi): on an ECC machine every word some member holds carries the
// Tapeworm check bit; on a breakpoint machine a word's breakpoint is armed
// iff its mask is nonzero; and the invalid-page masks hold no zero
// entries.
func checkGangUnionPages(g *Gang, lo, hi int) error {
	phys := g.m.Phys()
	for wi := uint32(lo * maskPageWords); wi < uint32(hi*maskPageWords); wi++ {
		pa := mem.PAddr(wi) * mem.WordBytes
		e := g.maskAt(wi)
		held := anyHolder(e)
		if g.ecc {
			if held && phys.ECCState(pa)&1 == 0 {
				return fmt.Errorf("word %#x: mask %x but its Tapeworm bit is clear", pa, e)
			}
		} else if armed := g.m.BreakpointArmed(pa); armed != held {
			return fmt.Errorf("word %#x: breakpoint armed %v, mask %x", pa, armed, e)
		}
	}
	for j, inv := range g.invalidMask {
		for key, m := range inv {
			if m == 0 {
				return fmt.Errorf("invalid-page mask word %d keeps a zero entry for %+v", j, key)
			}
		}
	}
	return nil
}

// TestGangUnionProperty drives a 70-member gang (two mask words) with
// random arms, clears, DMA writes, true-error injections and scrubs over
// a few pages, checking the union invariants and each
// operation's effect on the masks after every operation. It runs on the
// DECstation (ECC check bits) and on the Gateway 486 (breakpoints).
func TestGangUnionProperty(t *testing.T) {
	cfgs := make([]Config, 70)
	for i := range cfgs {
		cfgs[i] = dmICache(4<<(i%3), cache.PhysIndexed)
	}
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			gangUnionProperty(t, MustAttachGang(bootDEC(t, 3, 3), cfgs), seed)
		})
	}
	for seed := uint64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprintf("gateway486/seed=%d", seed), func(t *testing.T) {
			gangUnionProperty(t, MustAttachGang(boot486(t, 3, 3), cfgs), seed)
		})
	}
}

func gangUnionProperty(t *testing.T, g *Gang, seed uint64) {
	m := g.m
	phys := m.Phys()
	r := rng.New(seed)
	base := mem.PAddr(phys.Bytes() - 4*4096) // four never-registered pages
	addr := func() (mem.PAddr, int) {
		return base + mem.PAddr(r.Intn(4*4096/4)*4), 1 + r.Intn(300)
	}
	// span checks want(word address, word mask) on every word of
	// [pa, pa+size).
	span := func(pa mem.PAddr, size int, want func(w mem.PAddr, e []uint64) bool) error {
		first, last := trapSpan(pa, size)
		for wi := first; wi <= last; wi++ {
			w := mem.PAddr(wi) * mem.WordBytes
			if e := g.maskAt(wi); !want(w, e) {
				return fmt.Errorf("word %#x: mask %x", w, e)
			}
		}
		return nil
	}
	for step := 0; step < 400; step++ {
		pa, size := addr()
		if size > phys.Bytes()-int(pa) {
			size = phys.Bytes() - int(pa)
		}
		var (
			op  string
			err error
		)
		switch n := r.Intn(100); {
		case n < 45:
			op = "arm"
			i := r.Intn(len(g.members))
			j, b := memberBit(i)
			g.members[i].mech.SetTrap(pa, size)
			// The member holds every word but, on an ECC machine, those
			// refused for a true error.
			err = span(pa, size, func(w mem.PAddr, e []uint64) bool {
				return e != nil && e[j]&b != 0 || g.ecc && phys.ECCState(w)&^1 != 0
			})
		case n < 80:
			op = "clear"
			i := r.Intn(len(g.members))
			j, b := memberBit(i)
			g.members[i].mech.ClearTrap(pa, size)
			err = span(pa, size, func(_ mem.PAddr, e []uint64) bool {
				return e == nil || e[j]&b == 0
			})
		case n < 88:
			op = "dma"
			m.DMAWrite(pa, size)
			if g.ecc {
				// DMA recomputes ECC for every word it stores: no trap and
				// no true error survives it. Breakpoints do.
				err = span(pa, size, func(w mem.PAddr, e []uint64) bool {
					return !anyHolder(e) && phys.ECCState(w) == 0
				})
			}
		case n < 93:
			op = "inject"
			phys.InjectError(pa, uint(r.Intn(39)))
		default:
			op = "scrub"
			phys.CorrectWord(pa)
			if g.ecc {
				err = span(pa, 1, func(_ mem.PAddr, e []uint64) bool { return !anyHolder(e) })
			}
		}
		if err == nil {
			err = checkGangUnionPages(g, len(g.maskPages)-4, len(g.maskPages))
		}
		if err != nil {
			t.Fatalf("step %d (%s %#x+%d): %v", step, op, pa, size, err)
		}
	}
	if err := checkGangUnion(g); err != nil {
		t.Fatal(err)
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
