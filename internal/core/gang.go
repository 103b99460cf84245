package core

// Ganged multi-configuration simulation (Section 4.4's "several simulators
// over the same trap mechanisms at once"): one booted machine drives N
// independent Tapeworm instances. The machine traps on the union of the
// members' trap sets — per-word ECC trap reference counts and per-word
// breakpoint refcounts in mem/mach make one member's tw_clear_trap unable
// to destroy another member's trap — and every trap event is demultiplexed
// to each member whose own intent set covers it.
//
// Two properties make each member's statistics byte-identical to its solo
// run:
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
//  2. Member-local intent. Each member keeps its own armed-word bitset
//     (cache modes) or invalid-page set (TLB mode). Every simulation
//     decision — is this trap mine, is this line armed, is this page
//     invalid — consults the member's intent, never the union state, so a
//     member cannot observe how many other members share a trap.
//
//  3. Member-local attributes. Each member keeps its own tw_attributes
//     bits per task, inherited through fork from its own bits. The
//     kernel's task structures carry the union over live members, so the
//     VM system reports every page some member simulates, and the gang
//     hands each registration only to the members that simulate the task.
//     Members that simulate different components (Table 6's user, server,
//     kernel and all-activity caches) therefore share one execution.
//
// Solo runs of gang-eligible experiments use a gang of one, making the
// equivalence exact rather than argued.

import (
	"fmt"
	"math/bits"
	"slices"

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
	live    []bool

	pageSize uint32
	pageBits uint

	// invalid holds the union TLB invalid-intent refcounts: how many live
	// members currently want (task, page) to trap. The physical page-valid
	// bit flips only on 0↔1 transitions of this count.
	invalid map[vkey]int

	// Member-intent reverse index for batch trap demux. For gangs of at
	// most 64 members, maskPages[wi>>maskPageShift] is a lazily allocated
	// 1024-word page whose entry for word wi is the bitset of member
	// indices holding wi in their intent set. A union trap fire then
	// demultiplexes with one word load and a bit walk instead of probing
	// every member's private bitset. The invariant — mask bit i set iff
	// member i's intent covers the word — is maintained at every intent
	// mutation (gangMech.SetTrap/ClearTrap, Detach, trapDestroyed).
	maskPages [][]uint64
	liveMask  uint64 // bit i set while member i is live
	eccMask   uint64 // bit i set for ECC cache-mode members
	bpMask    uint64 // bit i set for breakpoint cache-mode members

	// invalidMask is the TLB-mode analogue: the bitset of members holding
	// (task, page) invalid, keyed like invalid. One lookup replaces the
	// per-member tlbInvalid map probes on every invalid-page trap.
	invalidMask map[vkey]uint64

	// wide gangs (>64 members) exceed the mask width; linear forces the
	// per-member probe walk for the `make verify-gang-demux` byte-identity
	// gate. Either way delivery falls back to the original linear demux,
	// which visits members in the same ascending index order as the bit
	// walk — results are identical by construction.
	wide   bool
	linear bool
}

// maskPageShift sizes the lazily allocated mask pages at 1024 words
// (8 KB per page); trap sets are sparse, so most pages stay nil.
const (
	maskPageShift = 10
	maskPageWords = 1 << maskPageShift
)

// SetLinearDemux forces (true) or re-enables (false) the per-member
// linear trap demux in place of the member-intent bitset walk. Results
// are byte-identical either way; the verify-gang-demux gate runs both.
func (g *Gang) SetLinearDemux(v bool) { g.linear = v }

// bitsetDemux reports whether trap delivery may take the mask walk.
func (g *Gang) bitsetDemux() bool { return !g.wide && !g.linear }

func (g *Gang) maskSet(wi uint32, bit uint64) {
	pi := wi >> maskPageShift
	pg := g.maskPages[pi]
	if pg == nil {
		pg = make([]uint64, maskPageWords)
		g.maskPages[pi] = pg
	}
	pg[wi&(maskPageWords-1)] |= bit
}

func (g *Gang) maskClear(wi uint32, bit uint64) {
	if pg := g.maskPages[wi>>maskPageShift]; pg != nil {
		pg[wi&(maskPageWords-1)] &^= bit
	}
}

func (g *Gang) maskAt(wi uint32) uint64 {
	if pg := g.maskPages[wi>>maskPageShift]; pg != nil {
		return pg[wi&(maskPageWords-1)]
	}
	return 0
}

// AttachGang builds one Tapeworm per configuration on the booted kernel k
// and installs the gang as the kernel's memory-simulation hooks. The
// machine is switched to ledgered-trap mode and the physical memory's trap
// reference counts are enabled. Configurations are validated exactly as in
// Attach; the first failure aborts the whole gang.
func AttachGang(k *kernel.Kernel, cfgs []Config) (*Gang, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("core: gang needs at least one configuration")
	}
	m := k.Machine()
	g := &Gang{
		k:        k,
		m:        m,
		pageSize: uint32(m.Config().PageSize),
		invalid:  make(map[vkey]int),
	}
	for s := g.pageSize; s > 1; s >>= 1 {
		g.pageBits++
	}
	phys := m.Phys()
	m.SetLedgeredTraps(true)
	phys.EnableTrapRefs()
	phys.SetTrapDestroyedHook(g.trapDestroyed)

	words := phys.Bytes() / mem.WordBytes
	chunks := (words + 63) / 64
	g.wide = len(cfgs) > 64
	if !g.wide {
		g.maskPages = make([][]uint64, (words+maskPageWords-1)/maskPageWords)
		g.invalidMask = make(map[vkey]uint64)
	}
	for i, cfg := range cfgs {
		tw, err := build(k, cfg)
		if err != nil {
			return nil, err
		}
		tw.gang = g
		tw.gangIdx = i
		if cfg.Mode == ModeTLB {
			tw.tlbInvalid = make(map[vkey]bool)
		} else {
			_, bp := tw.mech.(*breakpointMech)
			tw.mech = &gangMech{tw: tw, inner: tw.mech, ecc: !bp}
			tw.intent = make([]uint64, chunks)
			if !g.wide {
				if bp {
					g.bpMask |= 1 << uint(i)
				} else {
					g.eccMask |= 1 << uint(i)
				}
			}
		}
		if !g.wide {
			g.liveMask |= 1 << uint(i)
		}
		// Every member starts from the kernel's current bits.
		tw.attrs = make(map[mem.TaskID]taskAttr)
		for _, t := range k.Tasks() {
			tw.attrs[t.ID] = taskAttr{t.Simulate, t.Inherit}
		}
		g.members = append(g.members, tw)
		g.live = append(g.live, true)
	}
	k.SetHooks(g)
	return g, nil
}

// setAttributes records tw_attributes for one member and stores the union
// over live members in the kernel's task structure.
func (g *Gang) setAttributes(tw *Tapeworm, tid mem.TaskID, simulate, inherit bool) error {
	if g.k.Task(tid) == nil {
		return g.k.SetAttributes(tid, simulate, inherit) // reports the unknown task
	}
	tw.attrs[tid] = taskAttr{simulate, inherit}
	return g.syncAttributes(tid)
}

// syncAttributes stores the union of the live members' bits for tid in
// the kernel's task structure, which is what the VM system consults.
func (g *Gang) syncAttributes(tid mem.TaskID) error {
	var u taskAttr
	for i, tw := range g.members {
		if g.live[i] {
			a := tw.attr(tid)
			u.simulate = u.simulate || a.simulate
			u.inherit = u.inherit || a.inherit
		}
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

// Members returns the attached simulators in configuration order,
// including detached ones (their statistics remain readable).
func (g *Gang) Members() []*Tapeworm { return g.members }

// Detach removes one member mid-run: its armed traps are released from the
// union (reference counts drop; physical traps disappear only where no
// other member holds them) and its invalid-page intents are returned. The
// member's statistics stay readable; it receives no further events.
// Releases traps the member acquired over its whole attachment, so the
// per-call balance is intentionally one-sided.
//
//twvet:transfer
func (g *Gang) Detach(tw *Tapeworm) error {
	idx := -1
	for i, m := range g.members {
		if m == tw {
			idx = i
			break
		}
	}
	if idx < 0 || !g.live[idx] {
		return fmt.Errorf("core: simulator not attached to this gang")
	}
	g.live[idx] = false
	g.liveMask &^= 1 << uint(idx)

	if tw.intent != nil {
		gm := tw.mech.(*gangMech)
		memberBit := uint64(1) << uint(idx)
		for ci, word := range tw.intent {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << uint(b)
				wi := uint32(ci*64 + b)
				pa := mem.PAddr(wi) * mem.WordBytes
				if gm.ecc {
					g.m.Controller().ReleaseTrapRef(pa)
				} else {
					g.m.ClearBreakpoint(pa)
				}
				if !g.wide {
					g.maskClear(wi, memberBit)
				}
			}
			tw.intent[ci] = 0
		}
	}
	// Restoring validity touches shared kernel page state, so walk the
	// member's invalid-intent set in sorted order: detach must leave the
	// gang in the same state regardless of map iteration order.
	keys := make([]vkey, 0, len(tw.tlbInvalid))
	for key := range tw.tlbInvalid {
		keys = append(keys, key)
	}
	slices.SortFunc(keys, vkeyCompare)
	for _, key := range keys {
		va := mem.VAddr(key.vpn) << g.pageBits
		if err := g.memberSetPageValid(tw, key.t, va, true); err != nil {
			return err
		}
	}
	// The union attributes no longer include the detached member's.
	for _, t := range g.k.Tasks() {
		if err := g.syncAttributes(t.ID); err != nil {
			return err
		}
	}
	return nil
}

// trapDestroyed is the Phys destroyed-trap hook: hardware paths (DMA
// writes, no-allocate store write-arounds, scrubbing) destroy an ECC trap
// regardless of how many members hold it, so every ECC member's intent for
// the word is cleared — exactly as each solo run would lose its own trap.
func (g *Gang) trapDestroyed(pa mem.PAddr) {
	wi := uint32(pa) / mem.WordBytes
	if g.bitsetDemux() {
		m := g.maskAt(wi) & g.eccMask & g.liveMask
		for w := m; w != 0; {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			g.members[b].intentClear(wi)
		}
		g.maskClear(wi, m)
		return
	}
	for i, tw := range g.members {
		if !g.live[i] || tw.intent == nil {
			continue
		}
		if gm, ok := tw.mech.(*gangMech); ok && !gm.ecc {
			continue // breakpoints live in mach, untouched by ECC destruction
		}
		tw.intentClear(wi)
		if !g.wide {
			g.maskClear(wi, 1<<uint(i))
		}
	}
}

// --- member intent bitsets (cache modes) ---

func (tw *Tapeworm) intentHas(wi uint32) bool {
	return tw.intent[wi>>6]&(1<<(wi&63)) != 0
}

func (tw *Tapeworm) intentSet(wi uint32)   { tw.intent[wi>>6] |= 1 << (wi & 63) }
func (tw *Tapeworm) intentClear(wi uint32) { tw.intent[wi>>6] &^= 1 << (wi & 63) }

// intentOverlaps reports whether any word of [pa, pa+size) is in this
// member's intent set.
func (tw *Tapeworm) intentOverlaps(pa mem.PAddr, size int) bool {
	if size <= 0 {
		size = mem.WordBytes
	}
	for off := 0; off < size; off += mem.WordBytes {
		if tw.intentHas(uint32(pa+mem.PAddr(off)) / mem.WordBytes) {
			return true
		}
	}
	return false
}

// trapArmed reports whether this simulator considers [pa, pa+size) armed:
// a gang member consults its own intent (the union bits in phys include
// other members' traps); a solo simulator owns the physical trap state.
func (tw *Tapeworm) trapArmed(pa mem.PAddr, size int) bool {
	if tw.gang != nil {
		return tw.intentOverlaps(pa, size)
	}
	return tw.m.Phys().Trapped(pa, size)
}

// usesBreakpoints reports whether this simulator's trap mechanism is the
// instruction-breakpoint variant (possibly wrapped for gang membership).
func (tw *Tapeworm) usesBreakpoints() bool {
	switch mech := tw.mech.(type) {
	case *breakpointMech:
		return true
	case *gangMech:
		return !mech.ecc
	}
	return false
}

// --- gangMech: the reference-counted trap mechanism wrapper ---

// gangMech wraps a member's trapMech so tw_set_trap/tw_clear_trap maintain
// the member's intent bitset and the machine's union reference counts. No
// host-line flush on arm: in ledgered-trap mode delivery is per-referenced-
// word, and flushing would perturb the host cache shared by all members.
type gangMech struct {
	tw    *Tapeworm
	inner trapMech
	ecc   bool
}

// SetTrap arms each word the member does not already hold, bumping the
// union refcount (ECC) or the breakpoint refcount. Words carrying a true
// memory error refuse the trap (AddTrapRef returns false), matching the
// solo mechanism's inability to distinguish its own syndrome there.
// Ownership of the acquired refs lives in the member's intent set until
// ClearTrap or Detach.
//
//twvet:transfer
func (gm *gangMech) SetTrap(pa mem.PAddr, size int) {
	if size <= 0 {
		size = mem.WordBytes
	}
	for off := 0; off < size; off += mem.WordBytes {
		w := (pa + mem.PAddr(off)) &^ 3
		wi := uint32(w) / mem.WordBytes
		if gm.tw.intentHas(wi) {
			continue
		}
		if gm.ecc {
			if !gm.tw.m.Controller().AddTrapRef(w) {
				continue
			}
		} else {
			gm.tw.m.SetBreakpoint(w)
		}
		gm.tw.intentSet(wi)
		if g := gm.tw.gang; !g.wide {
			g.maskSet(wi, 1<<uint(gm.tw.gangIdx))
		}
	}
}

// ClearTrap releases each word the member holds; the physical trap
// disappears only when the last holder releases.
//
//twvet:transfer
func (gm *gangMech) ClearTrap(pa mem.PAddr, size int) {
	if size <= 0 {
		size = mem.WordBytes
	}
	for off := 0; off < size; off += mem.WordBytes {
		w := (pa + mem.PAddr(off)) &^ 3
		wi := uint32(w) / mem.WordBytes
		if !gm.tw.intentHas(wi) {
			continue
		}
		gm.tw.intentClear(wi)
		if g := gm.tw.gang; !g.wide {
			g.maskClear(wi, 1<<uint(gm.tw.gangIdx))
		}
		if gm.ecc {
			gm.tw.m.Controller().ReleaseTrapRef(w)
		} else {
			gm.tw.m.ClearBreakpoint(w)
		}
	}
}

// SetupCycles delegates to the wrapped mechanism: each member is charged
// (on its own ledger) what its solo run would pay.
func (gm *gangMech) SetupCycles(words int) uint64 { return gm.inner.SetupCycles(words) }

// Name identifies the wrapped mechanism.
func (gm *gangMech) Name() string { return gm.inner.Name() }

// --- kernel.MemSimHooks implementation: fan-out and demultiplexing ---

// PageRegistered delivers tw_register_page to every live member that
// simulates task t. The kernel registers a page only for a simulated task,
// and it consults the union bit; each member's solo kernel would have
// consulted the member's own bit.
func (g *Gang) PageRegistered(t mem.TaskID, pa mem.PAddr, va mem.VAddr, kind mem.RefKind) {
	for i, tw := range g.members {
		if g.live[i] && tw.attr(t).simulate {
			tw.PageRegistered(t, pa, va, kind)
		}
	}
}

// PageRemoved delivers tw_remove_page. A real unmapping (exit, page-out)
// goes to every live member, as the kernel reports it whatever the simulate
// bit: a member that cleared its bit after registering must still see it.
// The predictable-DMA bracket's unregistration is taken only for a
// simulated task, so it goes only to the members that simulate t; the
// others keep their traps through the transfer, exactly as solo.
func (g *Gang) PageRemoved(t mem.TaskID, pa mem.PAddr, va mem.VAddr) {
	bracket := g.k.InDMABracket()
	for i, tw := range g.members {
		if g.live[i] && (!bracket || tw.attr(t).simulate) {
			tw.PageRemoved(t, pa, va)
		}
	}
}

// TaskForked fans task creation out to every live member, each of which
// records its own attributes for the child.
func (g *Gang) TaskForked(parent, child *kernel.Task) {
	for i, tw := range g.members {
		if g.live[i] {
			tw.TaskForked(parent, child)
		}
	}
}

// TaskExited fans task teardown out to every live member.
func (g *Gang) TaskExited(t mem.TaskID) {
	for i, tw := range g.members {
		if g.live[i] {
			tw.TaskExited(t)
		}
	}
}

// ECCTrap demultiplexes a memory-error trap: classified once, then
// delivered to every live ECC member whose intent set covers the word.
// True errors go back to the kernel. A Tapeworm-syndrome word no live
// member claims (all holders detached) is cleared so it cannot fire again.
func (g *Gang) ECCTrap(t mem.TaskID, va mem.VAddr, pa mem.PAddr, kind mem.RefKind) bool {
	w := pa &^ 3
	if g.m.Phys().Classify(w) != mem.SynTapeworm {
		return false
	}
	wi := uint32(w) / mem.WordBytes
	handled := false
	if g.bitsetDemux() {
		// One word load yields every interested member; the bit walk
		// visits them in ascending index order, exactly like the linear
		// probe loop below.
		for m := g.maskAt(wi) & g.eccMask & g.liveMask; m != 0; {
			b := bits.TrailingZeros64(m)
			m &^= 1 << uint(b)
			g.members[b].deliverTrap(t, va, w, kind)
			handled = true
		}
	} else {
		for i, tw := range g.members {
			if !g.live[i] || tw.intent == nil || !tw.intentHas(wi) {
				continue
			}
			if gm, ok := tw.mech.(*gangMech); ok && !gm.ecc {
				continue
			}
			tw.deliverTrap(t, va, w, kind)
			handled = true
		}
	}
	if !handled {
		g.m.Controller().ClearTrap(w, mem.WordBytes)
	}
	return true
}

// BreakpointTrap demultiplexes an instruction breakpoint to every live
// breakpoint member holding the word.
func (g *Gang) BreakpointTrap(t mem.TaskID, va mem.VAddr, pa mem.PAddr) {
	wi := uint32(pa&^3) / mem.WordBytes
	if g.bitsetDemux() {
		for m := g.maskAt(wi) & g.bpMask & g.liveMask; m != 0; {
			b := bits.TrailingZeros64(m)
			m &^= 1 << uint(b)
			g.members[b].BreakpointTrap(t, va, pa)
		}
		return
	}
	for i, tw := range g.members {
		if !g.live[i] || tw.intent == nil || !tw.intentHas(wi) {
			continue
		}
		tw.BreakpointTrap(t, va, pa)
	}
}

// InvalidPageTrap demultiplexes a page-valid-bit trap to every live TLB
// member that itself holds the page invalid. Members that left the page
// valid never see the event — their solo runs would not have trapped.
func (g *Gang) InvalidPageTrap(t mem.TaskID, va mem.VAddr, pa mem.PAddr, kind mem.RefKind) bool {
	key := vkey{t, uint32(va) >> g.pageBits}
	handled := false
	if g.bitsetDemux() {
		for m := g.invalidMask[key] & g.liveMask; m != 0; {
			b := bits.TrailingZeros64(m)
			m &^= 1 << uint(b)
			if g.members[b].InvalidPageTrap(t, va, pa, kind) {
				handled = true
			}
		}
		return handled
	}
	for i, tw := range g.members {
		if !g.live[i] || tw.cfg.Mode != ModeTLB || !tw.tlbInvalid[key] {
			continue
		}
		if tw.InvalidPageTrap(t, va, pa, kind) {
			handled = true
		}
	}
	return handled
}

// memberSetPageValid routes one member's page-valid-bit flip through the
// union refcounts: the physical pte bit changes only when the count of
// members holding the page invalid transitions between zero and nonzero,
// so tw_set_trap from one TLB simulator never revalidates a page another
// still holds invalid. mach.Machine.InvalidatePage (the PR 3 micro-cache
// protocol) therefore fires exactly on union transitions.
func (g *Gang) memberSetPageValid(tw *Tapeworm, t mem.TaskID, va mem.VAddr, valid bool) error {
	key := vkey{t, uint32(va) >> g.pageBits}
	if valid {
		if !tw.tlbInvalid[key] {
			return nil // member holds no invalid-intent; nothing to release
		}
		if g.invalid[key] == 1 {
			if err := g.k.SetPageValid(t, va, true); err != nil {
				return err
			}
			delete(g.invalid, key)
		} else {
			g.invalid[key]--
		}
		delete(tw.tlbInvalid, key)
		if !g.wide {
			if m := g.invalidMask[key] &^ (1 << uint(tw.gangIdx)); m == 0 {
				delete(g.invalidMask, key)
			} else {
				g.invalidMask[key] = m
			}
		}
		return nil
	}
	if tw.tlbInvalid[key] {
		return nil // already held invalid by this member
	}
	if g.invalid[key] == 0 {
		if err := g.k.SetPageValid(t, va, false); err != nil {
			return err
		}
	}
	g.invalid[key]++
	tw.tlbInvalid[key] = true
	if !g.wide {
		g.invalidMask[key] |= 1 << uint(tw.gangIdx)
	}
	return nil
}
