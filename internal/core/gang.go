package core

// Ganged multi-configuration simulation (Section 4.4's "several simulators
// over the same trap mechanisms at once"): one booted machine drives N
// independent Tapeworm instances. The machine traps on the union of the
// members' trap sets. For every physical word the gang keeps a mask of the
// members holding it, and that mask is the only record of who holds a
// trap: the hardware (mem's Tapeworm check bit, mach's breakpoint) says
// only whether the word is armed, which it is while the mask names anyone.
// One member's tw_clear_trap therefore cannot destroy another member's
// trap, and every trap event is demultiplexed to the members in its mask.
//
// Three properties make each member's statistics byte-identical to its
// solo run:
//
//  1. Ledgered traps. The machine runs in ledgered-trap mode
//     (mach.SetLedgeredTraps): trap delivery is per-referenced-word rather
//     than on host-cache refill, arming a trap does not flush the host
//     line, and handler overhead is charged to each member's private
//     ledger instead of the shared clock. The shared reference stream and
//     its timing are therefore provably independent of the trap state —
//     no member can perturb what another member observes, and the Figure 4
//     time-dilation leak cannot occur by construction.
//
//  2. Member-local trap sets. A cache-mode member's armed words are its
//     own bit in the word masks; a TLB-mode member holds pages invalid
//     through its own bit of the invalid-page masks. Every simulation
//     decision — is this trap mine, is this line armed, is this page
//     invalid — reads the member's own bit, never the union, so a member
//     cannot observe how many other members share a trap.
//
//  3. Member-local attributes. Each member keeps its own tw_attributes
//     bits per task, inherited through fork from its own bits. The
//     kernel's task structures carry the union over members, so the VM
//     system reports every page some member simulates, and the gang hands
//     each registration only to the members that simulate the task.
//     Members that simulate different components (Table 6's user, server,
//     kernel and all-activity caches) therefore share one execution.
//
// Solo runs of gang-eligible experiments use a gang of one, making the
// equivalence exact rather than argued.

import (
	"fmt"
	"math/bits"

	"tapeworm/internal/arch"
	"tapeworm/internal/kernel"
	"tapeworm/internal/mach"
	"tapeworm/internal/mem"
)

// Gang couples N Tapeworm instances to one booted kernel, installing
// itself as the kernel's memory-simulation hooks and demultiplexing every
// trap event to the members that claim it.
type Gang struct {
	k *kernel.Kernel
	m *mach.Machine

	members []*Tapeworm

	pageSize uint32
	pageBits uint

	// ecc is the cache-mode members' one trap mechanism: arch.SelectMechanism
	// picks ECC check bits from the processor alone when it has ECC traps,
	// and instruction breakpoints otherwise.
	ecc bool

	// Member masks are the gang's only record of who holds a trap. Each is
	// maskWords = ⌈n/64⌉ words; member i is bit i&63 of word i>>6
	// (memberBit).
	//
	// maskPages[wi>>maskPageShift] is a lazily allocated page holding one
	// mask per physical word: the cache-mode members holding the word. A
	// union trap fire demultiplexes with a bit walk over that mask. A word
	// is physically armed while its mask is nonzero: hold arms it when the
	// mask gains its first member, release disarms it when the mask loses
	// its last, and trapDestroyed empties the mask of a word the hardware
	// disarmed.
	maskWords int
	maskPages [][]uint64

	// invalidMask is the TLB-mode analogue: invalidMask[j][key] is word j
	// of the mask of members holding (task, page) invalid, absent when
	// zero. The physical page-valid bit is clear exactly while some
	// member's bit is set. One map per mask word keeps narrow gangs at one
	// allocation-free probe.
	invalidMask []map[vkey]uint64
}

// maskPageShift sizes the lazily allocated mask pages at 1024 physical
// words (maskWords × 8 KB per page); trap sets are sparse, so most pages
// stay nil. A page always holds whole 64-word trap chunks.
const (
	maskPageShift = 10
	maskPageWords = 1 << maskPageShift
)

// memberBit locates member i in a mask: bit b of word j.
func memberBit(i int) (j int, b uint64) { return i >> 6, 1 << uint(i&63) }

// anyHolder reports whether mask e names any member.
func anyHolder(e []uint64) bool {
	for _, w := range e {
		if w != 0 {
			return true
		}
	}
	return false
}

// maskAt returns the member mask of physical word wi, or nil when no
// member has ever held a word of its page.
func (g *Gang) maskAt(wi uint32) []uint64 {
	pg := g.maskPages[wi>>maskPageShift]
	if pg == nil {
		return nil
	}
	i := int(wi&(maskPageWords-1)) * g.maskWords
	return pg[i : i+g.maskWords]
}

// chunkMasks returns the masks of the 64 words of trap chunk ch, word
// ch<<6+b at [b*maskWords, (b+1)*maskWords). Their page is allocated on
// first use when alloc is set; otherwise an unallocated page returns nil.
func (g *Gang) chunkMasks(ch uint32, alloc bool) []uint64 {
	pi := ch >> (maskPageShift - 6)
	pg := g.maskPages[pi]
	if pg == nil {
		if !alloc {
			return nil
		}
		pg = make([]uint64, maskPageWords*g.maskWords)
		g.maskPages[pi] = pg
	}
	i := int(ch<<6&(maskPageWords-1)) * g.maskWords
	return pg[i : i+64*g.maskWords]
}

// holds reports whether member idx holds any word of [pa, pa+size).
func (g *Gang) holds(idx int, pa mem.PAddr, size int) bool {
	j, b := memberBit(idx)
	first, last := trapSpan(pa, size)
	for wi := first; wi <= last; wi++ {
		if e := g.maskAt(wi); e != nil && e[j]&b != 0 {
			return true
		}
	}
	return false
}

// AttachGang builds one Tapeworm per configuration on the booted kernel k
// and installs the gang as the kernel's memory-simulation hooks. The
// machine is switched to ledgered-trap mode and, on an ECC machine, the
// gang registers for physical memory's destroyed-trap notifications.
// Configurations are validated exactly as in Attach; the first failure
// aborts the whole gang.
func AttachGang(k *kernel.Kernel, cfgs []Config) (*Gang, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("core: gang needs at least one configuration")
	}
	m := k.Machine()
	mw := (len(cfgs) + 63) / 64
	g := &Gang{
		k:           k,
		m:           m,
		pageSize:    uint32(m.Config().PageSize),
		ecc:         m.Config().Proc.Has(arch.OpECCTraps),
		maskWords:   mw,
		invalidMask: make([]map[vkey]uint64, mw),
	}
	for j := range g.invalidMask {
		g.invalidMask[j] = make(map[vkey]uint64)
	}
	for s := g.pageSize; s > 1; s >>= 1 {
		g.pageBits++
	}
	phys := m.Phys()
	m.SetLedgeredTraps(true)
	if g.ecc {
		phys.SetTrapDestroyedHook(g.trapDestroyed)
	}

	words := phys.Bytes() / mem.WordBytes
	g.maskPages = make([][]uint64, (words+maskPageWords-1)/maskPageWords)
	for i, cfg := range cfgs {
		tw, err := build(k, cfg)
		if err != nil {
			return nil, err
		}
		tw.gang = g
		tw.gangIdx = i
		if cfg.Mode != ModeTLB {
			tw.mech = &gangMech{tw: tw, inner: tw.mech}
		}
		// Every member starts from the kernel's current bits.
		tw.attrs = make(map[mem.TaskID]taskAttr)
		for _, t := range k.Tasks() {
			tw.attrs[t.ID] = taskAttr{t.Simulate, t.Inherit}
		}
		g.members = append(g.members, tw)
	}
	k.SetHooks(g)
	return g, nil
}

// setAttributes records tw_attributes for one member and stores the union
// of the members' bits for tid in the kernel's task structure, which is
// what the VM system consults.
func (g *Gang) setAttributes(tw *Tapeworm, tid mem.TaskID, simulate, inherit bool) error {
	if g.k.Task(tid) == nil {
		return g.k.SetAttributes(tid, simulate, inherit) // reports the unknown task
	}
	tw.attrs[tid] = taskAttr{simulate, inherit}
	var u taskAttr
	for _, m := range g.members {
		a := m.attr(tid)
		u.simulate = u.simulate || a.simulate
		u.inherit = u.inherit || a.inherit
	}
	return g.k.SetAttributes(tid, u.simulate, u.inherit)
}

// MustAttachGang is AttachGang but panics on error.
func MustAttachGang(k *kernel.Kernel, cfgs []Config) *Gang {
	g, err := AttachGang(k, cfgs)
	if err != nil {
		panic(err)
	}
	return g
}

// Members returns the attached simulators in configuration order.
func (g *Gang) Members() []*Tapeworm { return g.members }

// hold adds member idx to the masks of the words cover of trap chunk ch
// that it does not hold yet. A word is armed when its mask gains its first
// member: ECC words with one ArmWords call for the chunk, breakpoint words
// with one SetBreakpoint each. ArmWords refuses words carrying a true
// memory error, matching the solo mechanism's inability to distinguish its
// own syndrome there, and the member does not hold a refused word.
func (g *Gang) hold(ch uint32, cover uint64, idx int) {
	j, b := memberBit(idx)
	masks, mw := g.chunkMasks(ch, true), g.maskWords
	var first uint64
	for rem := cover; rem != 0; rem &= rem - 1 {
		i := bits.TrailingZeros64(rem)
		e := masks[i*mw : i*mw+mw]
		if e[j]&b != 0 {
			continue
		}
		if !anyHolder(e) {
			first |= 1 << uint(i)
		}
		e[j] |= b
	}
	if first == 0 {
		return
	}
	var refused uint64
	if g.ecc {
		refused = g.m.Controller().ArmWords(ch, first)
	} else {
		for rem := first; rem != 0; rem &= rem - 1 {
			g.m.SetBreakpoint(chunkWordPA(ch, rem))
		}
	}
	for rem := refused; rem != 0; rem &= rem - 1 {
		masks[bits.TrailingZeros64(rem)*mw+j] &^= b
	}
}

// release drops member idx from the masks of the words cover of trap
// chunk ch that it holds. A word is disarmed when its mask loses its last
// member: ECC words with one DisarmWords call for the chunk, breakpoint
// words with one ClearBreakpoint each.
func (g *Gang) release(ch uint32, cover uint64, idx int) {
	j, b := memberBit(idx)
	masks, mw := g.chunkMasks(ch, false), g.maskWords
	if masks == nil {
		return
	}
	var last uint64
	for rem := cover; rem != 0; rem &= rem - 1 {
		i := bits.TrailingZeros64(rem)
		e := masks[i*mw : i*mw+mw]
		if e[j]&b == 0 {
			continue
		}
		e[j] &^= b
		if !anyHolder(e) {
			last |= 1 << uint(i)
		}
	}
	if last == 0 {
		return
	}
	if g.ecc {
		g.m.Controller().DisarmWords(ch, last)
		return
	}
	for rem := last; rem != 0; rem &= rem - 1 {
		g.m.ClearBreakpoint(chunkWordPA(ch, rem))
	}
}

// chunkWordPA returns the address of the lowest word of trap chunk ch set
// in the nonzero word mask m.
func chunkWordPA(ch uint32, m uint64) mem.PAddr {
	return mem.PAddr(ch<<6+uint32(bits.TrailingZeros64(m))) * mem.WordBytes
}

// trapDestroyed is the Phys destroyed-trap hook of an ECC gang: hardware
// paths (DMA writes, no-allocate store write-arounds, scrubbing) destroy a
// trap regardless of how many members hold it, so the word's mask is
// cleared — exactly as each solo run would lose its own trap.
func (g *Gang) trapDestroyed(pa mem.PAddr) {
	clear(g.maskAt(uint32(pa) / mem.WordBytes))
}

// trapArmed reports whether this simulator considers [pa, pa+size) armed:
// a gang member reads its own bit of the word masks (the physical trap
// state is the union over members); a solo simulator owns the physical
// trap state.
func (tw *Tapeworm) trapArmed(pa mem.PAddr, size int) bool {
	if tw.gang != nil {
		return tw.gang.holds(tw.gangIdx, pa, size)
	}
	return tw.m.Phys().Trapped(pa, size)
}

// usesBreakpoints reports whether this simulator's trap mechanism is the
// instruction-breakpoint variant (possibly wrapped for gang membership).
func (tw *Tapeworm) usesBreakpoints() bool {
	switch tw.mech.(type) {
	case *breakpointMech:
		return true
	case *gangMech:
		return !tw.gang.ecc
	}
	return false
}

// --- gangMech: the union trap mechanism wrapper ---

// gangMech wraps a member's trapMech so tw_set_trap/tw_clear_trap update
// the member's bits in the gang's word masks, arming and disarming the
// union a 64-word chunk at a time. No host-line flush on arm: in
// ledgered-trap mode delivery is per-referenced-word, and flushing would
// perturb the host cache shared by all members.
type gangMech struct {
	tw    *Tapeworm
	inner trapMech
}

// trapSpan returns the first and last word index tw_set_trap and
// tw_clear_trap cover: ⌈size/4⌉ words from the word containing pa.
func trapSpan(pa mem.PAddr, size int) (first, last uint32) {
	if size <= 0 {
		size = mem.WordBytes
	}
	first = uint32(pa) / mem.WordBytes
	return first, first + uint32((size+mem.WordBytes-1)/mem.WordBytes) - 1
}

// chunkCover returns the words of chunk ch inside [first, last]; the tail
// shift wraps to all-ones when last is the chunk's final word.
func chunkCover(ch, first, last uint32) uint64 {
	m := ^uint64(0)
	if ch == first>>6 {
		m &= ^uint64(0) << (first & 63)
	}
	if ch == last>>6 {
		m &= uint64(1)<<((last&63)+1) - 1
	}
	return m
}

// SetTrap makes the member hold the words of [pa, pa+size), a chunk at a
// time (Gang.hold).
func (gm *gangMech) SetTrap(pa mem.PAddr, size int) {
	first, last := trapSpan(pa, size)
	for ch := first >> 6; ch <= last>>6; ch++ {
		gm.tw.gang.hold(ch, chunkCover(ch, first, last), gm.tw.gangIdx)
	}
}

// ClearTrap releases the words of [pa, pa+size) the member holds, a chunk
// at a time (Gang.release); a physical trap disappears only when its last
// holder releases it.
func (gm *gangMech) ClearTrap(pa mem.PAddr, size int) {
	first, last := trapSpan(pa, size)
	for ch := first >> 6; ch <= last>>6; ch++ {
		gm.tw.gang.release(ch, chunkCover(ch, first, last), gm.tw.gangIdx)
	}
}

// SetupCycles delegates to the wrapped mechanism: each member is charged
// (on its own ledger) what its solo run would pay.
func (gm *gangMech) SetupCycles(words int) uint64 { return gm.inner.SetupCycles(words) }

// Name identifies the wrapped mechanism.
func (gm *gangMech) Name() string { return gm.inner.Name() }

// --- kernel.MemSimHooks implementation: fan-out and demultiplexing ---

// PageRegistered delivers tw_register_page to every member that simulates
// task t. The kernel registers a page only for a simulated task, and it
// consults the union bit; each member's solo kernel would have consulted
// the member's own bit.
func (g *Gang) PageRegistered(t mem.TaskID, pa mem.PAddr, va mem.VAddr, kind mem.RefKind) {
	for _, tw := range g.members {
		if tw.attr(t).simulate {
			tw.PageRegistered(t, pa, va, kind)
		}
	}
}

// PageRemoved delivers tw_remove_page. A real unmapping (exit, page-out)
// goes to every member, as the kernel reports it whatever the simulate
// bit: a member that cleared its bit after registering must still see it.
// The predictable-DMA bracket's unregistration is taken only for a
// simulated task, so it goes only to the members that simulate t; the
// others keep their traps through the transfer, exactly as solo.
func (g *Gang) PageRemoved(t mem.TaskID, pa mem.PAddr, va mem.VAddr) {
	bracket := g.k.InDMABracket()
	for _, tw := range g.members {
		if !bracket || tw.attr(t).simulate {
			tw.PageRemoved(t, pa, va)
		}
	}
}

// TaskForked fans task creation out to every member, each of which
// records its own attributes for the child.
func (g *Gang) TaskForked(parent, child *kernel.Task) {
	for _, tw := range g.members {
		tw.TaskForked(parent, child)
	}
}

// TaskExited fans task teardown out to every member.
func (g *Gang) TaskExited(t mem.TaskID) {
	for _, tw := range g.members {
		tw.TaskExited(t)
	}
}

// ECCTrap demultiplexes a memory-error trap: classified once, then
// delivered to every member holding the word, in ascending member order. A
// true error is counted by every cache-mode member, as each one's solo
// ECCTrap would count it, and goes back to the kernel. A
// Tapeworm-syndrome word no member holds (an orphan) is cleared so it
// cannot fire again.
func (g *Gang) ECCTrap(t mem.TaskID, va mem.VAddr, pa mem.PAddr, kind mem.RefKind) bool {
	w := pa &^ 3
	if g.m.Phys().Classify(w) != mem.SynTapeworm {
		for _, tw := range g.members {
			if tw.cfg.Mode != ModeTLB {
				tw.st.TrueErrors++
			}
		}
		return false
	}
	handled := false
	for j, held := range g.maskAt(uint32(w) / mem.WordBytes) {
		for m := held; m != 0; m &= m - 1 {
			g.members[j<<6+bits.TrailingZeros64(m)].deliverTrap(t, va, w, kind)
			handled = true
		}
	}
	if !handled {
		g.m.Controller().ClearTrap(w, mem.WordBytes)
	}
	return true
}

// BreakpointTrap demultiplexes an instruction breakpoint to every member
// holding the word.
func (g *Gang) BreakpointTrap(t mem.TaskID, va mem.VAddr, pa mem.PAddr) {
	for j, held := range g.maskAt(uint32(pa&^3) / mem.WordBytes) {
		for m := held; m != 0; m &= m - 1 {
			g.members[j<<6+bits.TrailingZeros64(m)].BreakpointTrap(t, va, pa)
		}
	}
}

// InvalidPageTrap demultiplexes a page-valid-bit trap to every TLB member
// that itself holds the page invalid. Members that left the page valid
// never see the event — their solo runs would not have trapped.
func (g *Gang) InvalidPageTrap(t mem.TaskID, va mem.VAddr, pa mem.PAddr, kind mem.RefKind) bool {
	key := vkey{t, uint32(va) >> g.pageBits}
	handled := false
	for j, inv := range g.invalidMask {
		for m := inv[key]; m != 0; m &= m - 1 {
			if g.members[j<<6+bits.TrailingZeros64(m)].InvalidPageTrap(t, va, pa, kind) {
				handled = true
			}
		}
	}
	return handled
}

// holdsInvalid reports whether member tw holds (task, page) key invalid.
func (g *Gang) holdsInvalid(tw *Tapeworm, key vkey) bool {
	j, b := memberBit(tw.gangIdx)
	return g.invalidMask[j][key]&b != 0
}

// memberSetPageValid routes one member's page-valid-bit flip through the
// union: the physical pte bit changes only when the mask of members
// holding the page invalid empties or stops being empty, so tw_set_trap
// from one TLB simulator never revalidates a page another still holds
// invalid. mach.Machine.InvalidatePage (the translation micro-cache
// protocol) therefore fires exactly on union transitions.
func (g *Gang) memberSetPageValid(tw *Tapeworm, t mem.TaskID, va mem.VAddr, valid bool) error {
	key := vkey{t, uint32(va) >> g.pageBits}
	j, b := memberBit(tw.gangIdx)
	held := g.invalidMask[j][key]
	if (held&b == 0) == valid {
		return nil // nothing to release, or already held invalid
	}
	others := held&^b != 0
	for jj, inv := range g.invalidMask {
		if jj != j && inv[key] != 0 {
			others = true
		}
	}
	if !others {
		if err := g.k.SetPageValid(t, va, valid); err != nil {
			return err
		}
	}
	if held ^= b; held == 0 {
		delete(g.invalidMask[j], key)
	} else {
		g.invalidMask[j][key] = held
	}
	return nil
}
