// Package core implements Tapeworm II, the paper's contribution: a
// kernel-resident, trap-driven cache and TLB simulator.
//
// Tapeworm never sees cache hits. It begins by arming traps on every
// memory location of the pages registered to it; locations with traps set
// represent locations absent from the simulated cache. The first use of
// such a location traps into the kernel, where Tapeworm counts the miss,
// clears the trap (caching the location, since later uses now run at full
// hardware speed), consults tw_replace for a victim, and arms a trap on
// the displaced location (Figure 1):
//
//	tw_miss(address){
//	    miss++;
//	    tw_clear_trap(address);
//	    displaced_address = tw_replace(address);
//	    tw_set_trap(displaced_address);
//	}
//
// The six primitives of Table 1 map to methods here: tw_set_trap and
// tw_clear_trap are the machine-dependent trapMech implementations
// (machdep_*.go), tw_register_page and tw_remove_page are the
// PageRegistered/PageRemoved hooks driven by the kernel's VM system,
// tw_attributes is Attributes, and tw_replace is the insert path of the
// simulated cache structure.
package core

import (
	"fmt"
	"slices"

	"tapeworm/internal/arch"
	"tapeworm/internal/cache"
	"tapeworm/internal/kernel"
	"tapeworm/internal/mach"
	"tapeworm/internal/mem"
	"tapeworm/internal/rng"
	"tapeworm/internal/telemetry"
)

// PhysicsVersion is the simulation-semantics version in every
// result-cache digest. Bump it whenever event-stream semantics change —
// anything that alters what a run computes from the same configuration:
// trap arming/clearing rules, replacement policy behaviour, handler cost
// tables, the kernel's boot recipe or scheduling, the workload stream
// generators. Persisted results from older physics then simply never
// match, which is the invalidation rule: stale entries are unreachable,
// not migrated.
const PhysicsVersion = 1

// Mode selects what Tapeworm simulates.
type Mode int

const (
	// ModeICache simulates an instruction cache: only pages faulted in by
	// instruction fetches are registered, and traps raised by data
	// references are cleared without counting.
	ModeICache Mode = iota
	// ModeDCache simulates a data cache (requires an allocate-on-write
	// host, per Section 4.4).
	ModeDCache
	// ModeUnified simulates a unified cache over all reference kinds.
	ModeUnified
	// ModeTLB simulates a TLB using page-valid-bit traps.
	ModeTLB
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeICache:
		return "icache"
	case ModeDCache:
		return "dcache"
	case ModeUnified:
		return "unified"
	case ModeTLB:
		return "tlb"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Config parameterizes a Tapeworm simulation.
type Config struct {
	Mode Mode

	// Cache is the simulated cache geometry (cache modes). Because
	// tw_replace is pure software, it is unconstrained by the host: the
	// simulated cache may be larger or smaller than the host's, any
	// associativity, any line size that the trap mechanism can express,
	// virtually or physically indexed.
	//
	// One inherent caveat of trap-driven simulation: hits never reach the
	// simulator, so true LRU (which needs per-hit recency updates) cannot
	// be maintained for associative caches. An LRU policy here degrades
	// to insertion-order (FIFO) replacement — exactly what a kernel-
	// resident trap-driven simulator can implement, and equal to a
	// trace-driven FIFO simulation of the same geometry.
	Cache cache.Config

	// L2, when non-nil, adds a second cache level behind Cache (cache
	// modes): tw_replace then maintains an inclusive two-level hierarchy
	// and traps are armed only on lines absent from *both* levels, at L2
	// line granularity. Counted misses are overall (L2) misses; L1-miss/
	// L2-hit events run at full speed and are invisible — the trap can
	// only distinguish "somewhere in the hierarchy" from "nowhere".
	L2 *cache.Config

	// TLB is the simulated TLB geometry (ModeTLB).
	TLB cache.TLBConfig

	Sampling Sampling
	Handler  HandlerModel

	// Window restricts which misses are counted to a warm-up/measure
	// interval over retired instructions. Trap physics are unaffected —
	// the zero value (measure everything) leaves results bit-identical.
	Window Window

	// Seed drives victim choice for Random replacement policies.
	Seed uint64

	// AllowWriteClears permits data/unified simulation on a
	// no-allocate-on-write host. Store misses then silently destroy traps
	// without invoking the handler, undercounting misses — the exact
	// failure that blocked data-cache simulation on the DECstation
	// (Section 4.4). Off by default so the error is loud.
	AllowWriteClears bool
}

// Stats aggregates Tapeworm's measurements and self-accounting.
type Stats struct {
	Misses          uint64                       // counted simulated misses
	MissesByComp    [kernel.NumComponents]uint64 // user/server/kernel split
	CrossKindClears uint64                       // wrong-kind traps cleared uncounted
	LostDisplaced   uint64                       // victims whose page vanished mid-flight
	Registrations   uint64                       // tw_register_page calls accepted
	Removals        uint64                       // tw_remove_page completions
	PagesTracked    int                          // currently tracked physical pages
	HandlerCycles   uint64                       // overhead charged for miss handling
	SetupCycles     uint64                       // overhead charged for page (de)registration
	TrueErrors      uint64                       // non-Tapeworm syndromes passed through
}

// vkey identifies one virtual page mapping.
type vkey struct {
	t   mem.TaskID
	vpn uint32
}

// vkeyCompare orders vkeys by (task, vpn) for deterministic iteration
// over vkey-keyed maps.
func vkeyCompare(a, b vkey) int {
	if a.t != b.t {
		if a.t < b.t {
			return -1
		}
		return 1
	}
	if a.vpn != b.vpn {
		if a.vpn < b.vpn {
			return -1
		}
		return 1
	}
	return 0
}

// pageState tracks one registered physical page.
type pageState struct {
	ref      int
	kind     mem.RefKind
	mappings []vkey
}

// Tapeworm is the simulator instance. Create with Attach, which wires it
// into a booted kernel as that kernel's memory-simulation hooks.
type Tapeworm struct {
	cfg Config
	k   *kernel.Kernel
	m   *mach.Machine

	mech trapMech // cache modes
	sim  *cache.Cache
	sim2 *cache.TwoLevel // non-nil when Config.L2 is set
	tlb  *cache.TLB

	pageSize  uint32
	pageBits  uint
	lineSize  uint32
	missCost  uint64
	tlbCost   uint64
	kernelReg bool

	// windowOn caches Config.Window.enabled() so the no-window common
	// case costs one flag test per counted miss.
	windowOn bool

	pages map[uint32]*pageState // frame -> state
	mapVP map[vkey]mem.PAddr    // (task, vpn) -> physical page

	missesByTask map[mem.TaskID]uint64
	st           Stats

	// tel mirrors the kernel's telemetry run; consulted only on miss
	// paths, so a disabled run costs one nil test per counted miss.
	tel *telemetry.Run

	// Gang attach state (nil/zero for solo simulators). gang links back to
	// the Gang this member belongs to; the member's armed words and invalid
	// pages are its own bit (gangIdx) in the gang's masks. ledger
	// accumulates the overhead cycles a solo run would have charged to the
	// machine clock (gang members must never dilate the shared clock — the
	// Figure 4 leak); attrs holds the member's own tw_attributes bits per
	// task, of which the kernel's task structures carry only the union.
	gang    *Gang
	gangIdx int // member index; bit position in the gang's masks
	ledger  uint64
	attrs   map[mem.TaskID]taskAttr
}

// taskAttr is one gang member's tw_attributes bits for one task.
type taskAttr struct{ simulate, inherit bool }

// charge accounts overhead cycles: a solo simulator dilates the machine
// clock (time dilation is real and deliberate, Figure 4); a gang member
// charges its private ledger so its overhead never perturbs the shared
// stream the other members observe.
func (tw *Tapeworm) charge(c uint64) {
	if tw.gang != nil {
		tw.ledger += c
		return
	}
	tw.m.ChargeOverhead(c)
}

// LedgerCycles returns the overhead cycles accumulated on this member's
// private ledger (zero for solo simulators, whose overhead goes to the
// machine clock).
func (tw *Tapeworm) LedgerCycles() uint64 { return tw.ledger }

// counting reports whether a miss retiring now falls inside the
// measurement window. Only the counting is gated: trap physics (clear,
// simulate, re-arm, charge) run regardless, so simulated state stays
// warm through the warm-up and the tables are byte-identical with the
// window on or off.
func (tw *Tapeworm) counting() bool {
	return !tw.windowOn || tw.cfg.Window.Measuring(tw.m.Instructions())
}

// SetTelemetry redirects this simulator's miss events and counters to tel.
// Gang members get per-member runs; solo simulators inherit the kernel's.
func (tw *Tapeworm) SetTelemetry(tel *telemetry.Run) { tw.tel = tel }

// setPV flips one mapping's page valid bit (TLB mode). Solo simulators own
// the bit outright; gang members route through the gang's invalid-page
// masks so the physical bit flips only when the union validity transitions.
func (tw *Tapeworm) setPV(t mem.TaskID, va mem.VAddr, valid bool) error {
	if tw.gang != nil {
		return tw.gang.memberSetPageValid(tw, t, va, valid)
	}
	return tw.k.SetPageValid(t, va, valid)
}

// Attach builds a Tapeworm on the booted kernel k and installs it as the
// kernel's memory-simulation hooks. It fails when the host machine cannot
// express the requested simulation (Table 12 capability checks).
func Attach(k *kernel.Kernel, cfg Config) (*Tapeworm, error) {
	tw, err := build(k, cfg)
	if err != nil {
		return nil, err
	}
	k.SetHooks(tw)
	return tw, nil
}

// build constructs and validates a Tapeworm without installing kernel
// hooks; Attach installs the simulator directly, AttachGang wraps N of
// them behind one demultiplexing hook set.
func build(k *kernel.Kernel, cfg Config) (*Tapeworm, error) {
	m := k.Machine()
	proc := m.Config().Proc
	pageSize := m.Config().PageSize

	tw := &Tapeworm{
		cfg:          cfg,
		k:            k,
		m:            m,
		pageSize:     uint32(pageSize),
		pages:        make(map[uint32]*pageState),
		mapVP:        make(map[vkey]mem.PAddr),
		missesByTask: make(map[mem.TaskID]uint64),
		tel:          k.Telemetry(),
	}
	for s := pageSize; s > 1; s >>= 1 {
		tw.pageBits++
	}
	if err := cfg.Window.Validate(); err != nil {
		return nil, err
	}
	tw.windowOn = cfg.Window.enabled()

	switch cfg.Mode {
	case ModeICache, ModeDCache, ModeUnified:
		if err := cfg.Cache.Validate(); err != nil {
			return nil, err
		}
		if err := fitsMemory("cache", cfg.Cache, m); err != nil {
			return nil, err
		}
		// With a two-level hierarchy, traps live at L2 line granularity
		// and sampling selects L2 sets.
		trapLine := cfg.Cache.LineSize
		sampleSets := cfg.Cache.Sets()
		if cfg.L2 != nil {
			if err := cfg.L2.Validate(); err != nil {
				return nil, fmt.Errorf("core: L2: %w", err)
			}
			if err := fitsMemory("L2", *cfg.L2, m); err != nil {
				return nil, err
			}
			trapLine = cfg.L2.LineSize
			sampleSets = cfg.L2.Sets()
		}
		if trapLine > pageSize {
			return nil, fmt.Errorf("core: line size %d exceeds page size %d",
				trapLine, pageSize)
		}
		if err := cfg.Sampling.Validate(sampleSets); err != nil {
			return nil, err
		}
		mechKind, err := arch.SelectMechanism(proc, trapLine)
		if err != nil {
			return nil, err
		}
		switch mechKind {
		case arch.MechECC:
			tw.mech = newECCMech(m)
		case arch.MechBreakpoint:
			if cfg.Mode != ModeICache {
				return nil, fmt.Errorf(
					"core: %s offers only instruction breakpoints, which cannot trap data references",
					proc.Name)
			}
			tw.mech = newBreakpointMech(m)
		default:
			return nil, fmt.Errorf("core: no usable trap mechanism on %s", proc.Name)
		}
		if cfg.Mode != ModeICache && !proc.AllocateOnWrite && !cfg.AllowWriteClears {
			return nil, fmt.Errorf(
				"core: %s does not allocate on write; store misses would silently clear traps "+
					"(set AllowWriteClears to proceed anyway and observe the undercount)",
				proc.Name)
		}
		if cfg.L2 != nil {
			tw.sim2, err = cache.NewTwoLevel(cfg.Cache, *cfg.L2,
				rng.New(cfg.Seed).Split("replace"))
			if err != nil {
				return nil, err
			}
			tw.lineSize = uint32(cfg.L2.LineSize)
			// The handler walks both tag arrays on a miss.
			tw.missCost = missHandlerCycles(cfg.Handler, cfg.Cache) +
				uint64(Table5Breakdown().TwReplace)
		} else {
			tw.sim = cache.MustNew(cfg.Cache, rng.New(cfg.Seed).Split("replace"))
			tw.lineSize = uint32(cfg.Cache.LineSize)
			tw.missCost = missHandlerCycles(cfg.Handler, cfg.Cache)
		}

	case ModeTLB:
		if err := cfg.TLB.Validate(); err != nil {
			return nil, err
		}
		if !proc.Has(arch.OpInvalidPageTraps) {
			return nil, fmt.Errorf("core: %s lacks invalid-page traps", proc.Name)
		}
		if cfg.TLB.PageSize%pageSize != 0 {
			return nil, fmt.Errorf(
				"core: simulated page size %d not a multiple of host page size %d "+
					"(variable page sizes need host support, Table 2)",
				cfg.TLB.PageSize, pageSize)
		}
		if cfg.TLB.PageSize > pageSize && !proc.Has(arch.OpVariablePageSize) {
			return nil, fmt.Errorf("core: %s lacks variable page size support", proc.Name)
		}
		t, err := cache.NewTLB(cfg.TLB, rng.New(cfg.Seed).Split("replace"))
		if err != nil {
			return nil, err
		}
		if err := cfg.Sampling.Validate(t.SetCount()); err != nil {
			return nil, err
		}
		tw.tlb = t
		tw.tlbCost = tlbHandlerCycles(cfg.Handler)

	default:
		return nil, fmt.Errorf("core: unknown mode %v", cfg.Mode)
	}

	return tw, nil
}

// fitsMemory rejects a simulated cache larger than the machine's physical
// memory before its tag store is allocated: capacity beyond physical
// memory can never be filled, and a tag store for an arbitrary size can
// exhaust the host.
func fitsMemory(what string, c cache.Config, m *mach.Machine) error {
	if phys := m.Phys().Bytes(); c.Size > phys {
		return fmt.Errorf("core: %s size %d bytes exceeds the machine's %d bytes of physical memory",
			what, c.Size, phys)
	}
	return nil
}

// MustAttach is Attach but panics on error.
func MustAttach(k *kernel.Kernel, cfg Config) *Tapeworm {
	tw, err := Attach(k, cfg)
	if err != nil {
		panic(err)
	}
	return tw
}

// Config returns the simulation configuration.
func (tw *Tapeworm) Config() Config { return tw.cfg }

// MechanismName reports the trap mechanism in use.
func (tw *Tapeworm) MechanismName() string {
	if tw.cfg.Mode == ModeTLB {
		return "page valid bits"
	}
	return tw.mech.Name()
}

// Attributes implements tw_attributes(tid, simulate, inherit). A tid of
// zero signifies the kernel: enabling simulation for it registers every
// kernel page immediately (kernel pages never demand-fault). A gang
// member's bits are its own: they steer only its own registrations, and
// the kernel's task structure carries the union over members.
func (tw *Tapeworm) Attributes(tid mem.TaskID, simulate, inherit bool) error {
	var err error
	if tw.gang != nil {
		err = tw.gang.setAttributes(tw, tid, simulate, inherit)
	} else {
		err = tw.k.SetAttributes(tid, simulate, inherit)
	}
	if err != nil {
		return err
	}
	if tid == mem.KernelTask && simulate && !tw.kernelReg {
		if tw.cfg.Mode == ModeTLB {
			return fmt.Errorf("core: kernel kseg0 is not TLB-mapped; TLB simulation covers user and server tasks only")
		}
		tw.kernelReg = true
		tw.k.ForEachKernelPage(func(pa mem.PAddr, va mem.VAddr, kind mem.RefKind) {
			tw.PageRegistered(mem.KernelTask, pa, va, kind)
		})
	}
	return nil
}

// kindWanted reports whether this simulation registers pages first touched
// by the given reference kind, and counts misses of that kind.
func (tw *Tapeworm) kindWanted(k mem.RefKind) bool {
	switch tw.cfg.Mode {
	case ModeICache:
		return k == mem.IFetch
	case ModeDCache:
		return k != mem.IFetch
	default:
		return true
	}
}

// simKey forms the simulated-cache key for a reference: (task, virtual
// line) for virtually-indexed caches, the physical line otherwise.
func (tw *Tapeworm) simKey(t mem.TaskID, va mem.VAddr, pa mem.PAddr) (mem.TaskID, uint32) {
	if tw.cfg.Cache.Indexing == cache.VirtIndexed {
		return t, uint32(va)
	}
	return 0, uint32(pa)
}

// simSetIndex returns the set (of the trap-granularity level) an address
// maps to, for sampling decisions.
func (tw *Tapeworm) simSetIndex(addr uint32) int {
	if tw.sim2 != nil {
		return tw.sim2.L2.SetIndex(addr)
	}
	return tw.sim.SetIndex(addr)
}

// simProbe reports whether a line is resident anywhere in the simulated
// structure.
func (tw *Tapeworm) simProbe(task mem.TaskID, addr uint32) bool {
	if tw.sim2 != nil {
		return tw.sim2.Contains(task, addr)
	}
	return tw.sim.Probe(task, addr)
}

// simInvalidateRange flushes a range from every simulated level.
func (tw *Tapeworm) simInvalidateRange(task mem.TaskID, addr uint32, size int) {
	if tw.sim2 != nil {
		tw.sim2.L1.InvalidateRange(task, addr, size)
		tw.sim2.L2.InvalidateRange(task, addr, size)
		return
	}
	tw.sim.InvalidateRange(task, addr, size)
}

// simInsert runs tw_replace: insert the missing line, returning the line
// displaced out of the structure entirely (the location to re-arm), if any.
func (tw *Tapeworm) simInsert(task mem.TaskID, addr uint32) (displaced cache.Key, evicted bool) {
	if tw.sim2 != nil {
		_, displaced, evicted = tw.sim2.AccessDetail(task, addr)
		return displaced, evicted
	}
	return tw.sim.Insert(task, addr)
}

// simKeys lists resident lines at trap granularity (L2 under a hierarchy,
// where inclusion guarantees L1 ⊆ L2).
func (tw *Tapeworm) simKeys() []cache.Key {
	if tw.sim2 != nil {
		return tw.sim2.L2.Keys()
	}
	return tw.sim.Keys()
}

// --- kernel.MemSimHooks implementation ---

// PageRegistered is tw_register_page(tid, p, v): sets traps on the page's
// memory locations (restricted to sampled sets), or — if the physical page
// is already registered through another mapping — just bumps its reference
// count so tasks can share cached entries without fresh traps.
func (tw *Tapeworm) PageRegistered(t mem.TaskID, pa mem.PAddr, va mem.VAddr, kind mem.RefKind) {
	if tw.cfg.Mode != ModeTLB && !tw.kindWanted(kind) {
		return
	}
	frame := uint32(pa) >> tw.pageBits
	key := vkey{t, uint32(va) >> tw.pageBits}
	if _, dup := tw.mapVP[key]; dup {
		return // already registered (idempotent)
	}
	tw.st.Registrations++

	ps := tw.pages[frame]
	fresh := ps == nil
	if fresh {
		ps = &pageState{kind: kind}
		tw.pages[frame] = ps
		tw.st.PagesTracked++
	}
	ps.ref++
	ps.mappings = append(ps.mappings, key)
	tw.mapVP[key] = pa

	if tw.cfg.Mode == ModeTLB {
		// Each mapping has its own page-table entry, so every mapping
		// gets its own valid-bit trap, kernel pages excepted (kseg0 is
		// not TLB-mapped).
		if t == mem.KernelTask {
			return
		}
		if tw.cfg.Sampling.Sampled(tw.tlb.SetIndex(va)) {
			if err := tw.setPV(t, va, false); err == nil {
				tw.charge(12)
				tw.st.SetupCycles += 12
			}
		}
		return
	}

	if !fresh {
		return // shared physical page: no new memory traps
	}
	// Arm traps on every line of the page whose set is in the sample.
	// Unsampled locations never trap: the hardware filters them out of
	// the simulation at zero cost (Section 3.2, set sampling).
	armedWords := 0
	_, idxAddr := tw.simKey(t, va, pa)
	for off := uint32(0); off < tw.pageSize; off += tw.lineSize {
		if tw.cfg.Sampling.Sampled(tw.simSetIndex(idxAddr + off)) {
			tw.mech.SetTrap(pa+mem.PAddr(off), int(tw.lineSize))
			armedWords += int(tw.lineSize) / mem.WordBytes
		}
	}
	c := tw.mech.SetupCycles(armedWords)
	tw.charge(c)
	tw.st.SetupCycles += c
}

// PageRemoved is tw_remove_page(tid, p, v): the mapping leaves the
// Tapeworm domain; the physical page's traps are cleared and the page
// flushed from the simulated cache when its reference count reaches zero,
// mimicking what the VM system does to the host machine's real cache.
func (tw *Tapeworm) PageRemoved(t mem.TaskID, pa mem.PAddr, va mem.VAddr) {
	frame := uint32(pa) >> tw.pageBits
	ps := tw.pages[frame]
	key := vkey{t, uint32(va) >> tw.pageBits}
	if ps == nil {
		return // never registered (filtered by mode, or unknown)
	}
	if _, ok := tw.mapVP[key]; !ok {
		return // this mapping was not registered
	}
	delete(tw.mapVP, key)
	for i, mk := range ps.mappings {
		if mk == key {
			ps.mappings = append(ps.mappings[:i], ps.mappings[i+1:]...)
			break
		}
	}
	ps.ref--
	tw.st.Removals++

	if tw.cfg.Mode == ModeTLB {
		if t != mem.KernelTask {
			if tw.gang != nil {
				// Release this member's bit in the page's invalid mask;
				// the last holder's release revalidates a pte the VM is
				// about to destroy anyway.
				_ = tw.setPV(t, va, true)
			}
			tw.tlb.InvalidatePage(t, va)
			// Leave the pte alone: the VM system is about to destroy it.
		}
		if ps.ref == 0 {
			delete(tw.pages, frame)
			tw.st.PagesTracked--
		}
		return
	}

	// Flush this mapping's lines from a virtually-indexed cache now; a
	// physically-indexed cache keeps the lines until the last mapping
	// goes (shared entries survive their first task, as on real
	// hardware).
	if tw.cfg.Cache.Indexing == cache.VirtIndexed {
		tw.simInvalidateRange(t, uint32(va), int(tw.pageSize))
	}
	if ps.ref == 0 {
		if tw.cfg.Cache.Indexing == cache.PhysIndexed {
			tw.simInvalidateRange(0, uint32(pa), int(tw.pageSize))
		}
		tw.mech.ClearTrap(pa, int(tw.pageSize))
		c := tw.mech.SetupCycles(int(tw.pageSize) / mem.WordBytes)
		tw.charge(c)
		tw.st.SetupCycles += c
		delete(tw.pages, frame)
		tw.st.PagesTracked--
	}
}

// TaskForked implements the attribute-inheritance bookkeeping. A solo
// simulator has nothing to do: the kernel's fork path copies the bits. A
// gang member records its own view of the child — the caller's attributes
// for a spawned task, its own inherit bit of the parent for a forked one.
func (tw *Tapeworm) TaskForked(parent, child *kernel.Task) {
	if tw.gang == nil {
		return
	}
	if parent == nil {
		tw.attrs[child.ID] = taskAttr{child.Simulate, child.Inherit}
		return
	}
	tw.attr(child.ID)
}

// attr returns a gang member's own tw_attributes bits for task tid. Tasks
// alive at attach and spawned tasks are recorded up front. A forked child
// is resolved through its parent on first use, because kernel.fork
// registers the shared text pages before TaskForked fires:
//
//	child.simulate <- parent.inherit
//	child.inherit  <- parent.inherit
func (tw *Tapeworm) attr(tid mem.TaskID) taskAttr {
	if a, ok := tw.attrs[tid]; ok {
		return a
	}
	var a taskAttr
	if t := tw.k.Task(tid); t != nil && t.Parent != tid {
		inherit := tw.attr(t.Parent).inherit
		a = taskAttr{inherit, inherit}
	}
	tw.attrs[tid] = a
	return a
}

// TaskExited observes task teardown (page removals arrive separately).
func (tw *Tapeworm) TaskExited(t mem.TaskID) {}

// ECCTrap is the Tapeworm miss handler for memory-error traps (cache
// modes). It returns false for true memory errors, which the kernel then
// handles: Tapeworm's dedicated check bit makes real single- and
// double-bit errors distinguishable with high probability (Section 3.2).
func (tw *Tapeworm) ECCTrap(t mem.TaskID, va mem.VAddr, pa mem.PAddr, kind mem.RefKind) bool {
	if tw.cfg.Mode == ModeTLB || (tw.sim == nil && tw.sim2 == nil) {
		return false
	}
	if tw.m.Phys().Classify(pa) != mem.SynTapeworm {
		tw.st.TrueErrors++
		return false
	}
	tw.deliverTrap(t, va, pa, kind)
	return true
}

// deliverTrap handles one already-classified Tapeworm trap at word pa.
// Solo simulators reach it through ECCTrap; the gang demultiplexer calls
// it directly on every member holding the word.
func (tw *Tapeworm) deliverTrap(t mem.TaskID, va mem.VAddr, pa mem.PAddr, kind mem.RefKind) {
	// The trapped word and the referenced word share a page; reconstruct
	// the trapped word's virtual address from the page offset.
	off := uint32(pa) & (tw.pageSize - 1)
	vaTrap := mem.VAddr(uint32(va)&^(tw.pageSize-1) | off)
	paLine := pa &^ mem.PAddr(tw.lineSize-1)
	vaLine := vaTrap &^ mem.VAddr(tw.lineSize-1)

	if !tw.kindWanted(kind) {
		// Wrong-kind reference (e.g. a load walking a jump table inside
		// a page tracked by an I-cache simulation): clear and move on
		// without counting.
		tw.mech.ClearTrap(paLine, int(tw.lineSize))
		tw.charge(crossKindClearCycles)
		tw.st.CrossKindClears++
		return
	}

	tw.miss(t, vaLine, paLine)
}

// BreakpointTrap is the miss path for the breakpoint trap mechanism
// (instruction-cache simulation on hosts without ECC diagnostics).
func (tw *Tapeworm) BreakpointTrap(t mem.TaskID, va mem.VAddr, pa mem.PAddr) {
	if tw.cfg.Mode != ModeICache || !tw.usesBreakpoints() {
		return
	}
	paLine := pa &^ mem.PAddr(tw.lineSize-1)
	vaLine := va &^ mem.VAddr(tw.lineSize-1)
	tw.miss(t, vaLine, paLine)
}

// miss is tw_cache_miss + tw_clear_trap + tw_replace + tw_set_trap: the
// core trap-driven loop of Figure 1.
func (tw *Tapeworm) miss(t mem.TaskID, vaLine mem.VAddr, paLine mem.PAddr) {
	if tw.counting() {
		tw.st.Misses++
		tw.st.MissesByComp[tw.k.ComponentOf(t)]++
		tw.missesByTask[t]++
		if tw.tel != nil {
			tw.tel.Event(telemetry.EvTwMiss, int32(t), uint32(vaLine), uint32(paLine), tw.m.Cycles())
		}
	}

	tw.mech.ClearTrap(paLine, int(tw.lineSize))

	keyTask, keyAddr := tw.simKey(t, vaLine, paLine)
	if displaced, evicted := tw.simInsert(keyTask, keyAddr); evicted {
		if dispPA, ok := tw.resolveLinePA(displaced); ok {
			tw.mech.SetTrap(dispPA, int(tw.lineSize))
		} else {
			tw.st.LostDisplaced++
		}
	}

	tw.charge(tw.missCost)
	tw.st.HandlerCycles += tw.missCost
}

// resolveLinePA maps a displaced cache key back to the physical line to
// re-arm. Physically-indexed keys are already physical; virtually-indexed
// keys go through the recorded (task, page) mappings.
func (tw *Tapeworm) resolveLinePA(k cache.Key) (mem.PAddr, bool) {
	if tw.cfg.Cache.Indexing == cache.PhysIndexed {
		frame := k.Addr >> tw.pageBits
		if tw.pages[frame] == nil {
			return 0, false
		}
		return mem.PAddr(k.Addr), true
	}
	if mach.IsKernelVA(mem.VAddr(k.Addr)) {
		// Kernel lines map directly.
		pa := mem.PAddr(mem.VAddr(k.Addr) - mach.KernelBase)
		if tw.pages[uint32(pa)>>tw.pageBits] == nil {
			return 0, false
		}
		return pa, true
	}
	pa, ok := tw.mapVP[vkey{k.Task, k.Addr >> tw.pageBits}]
	if !ok {
		return 0, false
	}
	return pa + mem.PAddr(k.Addr&(tw.pageSize-1)&^(tw.lineSize-1)), true
}

// InvalidPageTrap is the TLB-mode miss handler: the faulting page is
// really resident; its valid bit was cleared by Tapeworm. Count the miss,
// revalidate the page, insert the translation, and invalidate whatever
// tw_replace displaced.
func (tw *Tapeworm) InvalidPageTrap(t mem.TaskID, va mem.VAddr, pa mem.PAddr, kind mem.RefKind) bool {
	if tw.cfg.Mode != ModeTLB {
		return false
	}
	if _, tracked := tw.mapVP[vkey{t, uint32(va) >> tw.pageBits}]; !tracked {
		return false
	}
	if tw.gang != nil && !tw.gang.holdsInvalid(tw, vkey{t, uint32(va) >> tw.pageBits}) {
		// Another gang member holds this page invalid; not our miss.
		return false
	}
	if tw.tlb.Probe(t, va) {
		// With simulated pages larger than host pages (superpages, R4000
		// variable page size), a sibling base page's miss already brought
		// the covering translation in; revalidate without counting.
		_ = tw.setPV(t, va, true)
		tw.charge(tw.tlbCost / 4)
		return true
	}
	if tw.counting() {
		tw.st.Misses++
		tw.st.MissesByComp[tw.k.ComponentOf(t)]++
		tw.missesByTask[t]++
		if tw.tel != nil {
			tw.tel.Event(telemetry.EvTLBMiss, int32(t), uint32(va), uint32(pa), tw.m.Cycles())
		}
	}

	if err := tw.setPV(t, va, true); err != nil {
		return false
	}
	displaced, evicted := tw.tlb.Insert(t, va)
	if evicted {
		if _, still := tw.mapVP[vkey{displaced.Task, displaced.Addr >> tw.pageBits}]; still {
			if tw.cfg.Sampling.Sampled(tw.tlb.SetIndex(mem.VAddr(displaced.Addr))) {
				_ = tw.setPV(displaced.Task, mem.VAddr(displaced.Addr), false)
			}
		} else {
			tw.st.LostDisplaced++
		}
	}
	tw.charge(tw.tlbCost)
	tw.st.HandlerCycles += tw.tlbCost
	return true
}

// --- results ---

// Stats returns the simulator's counters.
func (tw *Tapeworm) Stats() Stats { return tw.st }

// ReportTelemetry snapshots Tapeworm's self-accounting into the
// attached telemetry run at end of run. A no-op when telemetry is
// disabled.
func (tw *Tapeworm) ReportTelemetry() {
	if tw.tel == nil {
		return
	}
	tw.tel.SetCounter("tw_misses", tw.st.Misses)
	tw.tel.SetCounter("tw_misses_user", tw.st.MissesByComp[kernel.CompUser])
	tw.tel.SetCounter("tw_misses_server", tw.st.MissesByComp[kernel.CompServer])
	tw.tel.SetCounter("tw_misses_kernel", tw.st.MissesByComp[kernel.CompKernel])
	tw.tel.SetCounter("tw_cross_kind_clears", tw.st.CrossKindClears)
	tw.tel.SetCounter("tw_lost_displaced", tw.st.LostDisplaced)
	tw.tel.SetCounter("tw_registrations", tw.st.Registrations)
	tw.tel.SetCounter("tw_removals", tw.st.Removals)
	tw.tel.SetCounter("tw_pages_tracked", uint64(tw.st.PagesTracked))
	tw.tel.SetCounter("tw_handler_cycles", tw.st.HandlerCycles)
	tw.tel.SetCounter("tw_setup_cycles", tw.st.SetupCycles)
	tw.tel.SetCounter("tw_true_errors", tw.st.TrueErrors)
}

// Misses returns the raw counted misses.
func (tw *Tapeworm) Misses() uint64 { return tw.st.Misses }

// EstimatedMisses scales counted misses up by the sampling fraction,
// forming the set-sampling estimator for total misses [Puzak85,
// Kessler91].
func (tw *Tapeworm) EstimatedMisses() float64 {
	return float64(tw.st.Misses) / tw.cfg.Sampling.Fraction()
}

// MissesByComponent splits counted misses across user tasks, servers, and
// the kernel (Table 6's columns).
func (tw *Tapeworm) MissesByComponent() [kernel.NumComponents]uint64 {
	return tw.st.MissesByComp
}

// MissesByTask returns the per-task miss counts.
func (tw *Tapeworm) MissesByTask() map[mem.TaskID]uint64 {
	out := make(map[mem.TaskID]uint64, len(tw.missesByTask))
	//twvet:allow maporder — copying into a fresh map is order-insensitive
	for k, v := range tw.missesByTask {
		out[k] = v
	}
	return out
}

// SimCacheLen returns the number of lines (or translations) currently in
// the simulated structure.
func (tw *Tapeworm) SimCacheLen() int {
	if tw.cfg.Mode == ModeTLB {
		return tw.tlb.Len()
	}
	if tw.sim2 != nil {
		return tw.sim2.L2.Len()
	}
	return tw.sim.Len()
}

// CheckInvariant verifies the trap/cache consistency invariant: no line
// resident in the simulated cache may have a trap set on its memory, and
// (for cache modes) every tracked, sampled line is either resident or
// trapped. The second half admits the documented leaks — wrong-kind
// clears, no-allocate write-arounds, and interrupt-masked drops do remove
// traps without filling the cache — so callers pass the number of such
// events they tolerate.
func (tw *Tapeworm) CheckInvariant(toleratedLeaks uint64) error {
	if tw.cfg.Mode == ModeTLB {
		return tw.checkTLBInvariant()
	}
	for _, k := range tw.simKeys() {
		pa, ok := tw.resolveLinePA(k)
		if !ok {
			continue // page removed; lines flushed lazily is a violation
		}
		if tw.trapArmed(pa, int(tw.lineSize)) {
			return fmt.Errorf("core: line %+v resident in simulated cache but trapped at %#x", k, pa)
		}
	}
	var leaks uint64
	// Iterate frames in sorted order so the first invariant violation
	// reported is the same on every run.
	frames := make([]uint32, 0, len(tw.pages))
	for frame := range tw.pages {
		frames = append(frames, frame)
	}
	slices.Sort(frames)
	for _, frame := range frames {
		ps := tw.pages[frame]
		pa := mem.PAddr(frame) << tw.pageBits
		var va mem.VAddr
		if len(ps.mappings) > 0 {
			va = mem.VAddr(ps.mappings[0].vpn) << tw.pageBits
		}
		_, idxAddr := tw.simKey(0, va, pa)
		for off := uint32(0); off < tw.pageSize; off += tw.lineSize {
			if !tw.cfg.Sampling.Sampled(tw.simSetIndex(idxAddr + off)) {
				continue
			}
			trapped := tw.trapArmed(pa+mem.PAddr(off), int(tw.lineSize))
			resident := tw.residentAnywhere(ps, pa+mem.PAddr(off), off)
			if !trapped && !resident {
				leaks++
			}
		}
	}
	if leaks > toleratedLeaks {
		return fmt.Errorf("core: %d sampled lines neither trapped nor resident (tolerated %d)",
			leaks, toleratedLeaks)
	}
	return nil
}

// residentAnywhere reports whether any mapping of the given physical line
// is resident in the simulated cache.
func (tw *Tapeworm) residentAnywhere(ps *pageState, pa mem.PAddr, pageOff uint32) bool {
	if tw.cfg.Cache.Indexing == cache.PhysIndexed {
		return tw.simProbe(0, uint32(pa))
	}
	for _, mk := range ps.mappings {
		va := mem.VAddr(mk.vpn)<<tw.pageBits + mem.VAddr(pageOff)
		if tw.simProbe(mk.t, uint32(va)) {
			return true
		}
	}
	return false
}

// checkTLBInvariant verifies that simulated-TLB residency matches page
// valid bits for every tracked mapping.
func (tw *Tapeworm) checkTLBInvariant() error {
	// Sorted iteration: the first violation reported must not depend on
	// map order.
	keys := make([]vkey, 0, len(tw.mapVP))
	for key := range tw.mapVP {
		keys = append(keys, key)
	}
	slices.SortFunc(keys, vkeyCompare)
	for _, key := range keys {
		if key.t == mem.KernelTask {
			continue
		}
		va := mem.VAddr(key.vpn) << tw.pageBits
		if !tw.cfg.Sampling.Sampled(tw.tlb.SetIndex(va)) {
			continue
		}
		inTLB := tw.tlb.Probe(key.t, va)
		_, resident := tw.k.ResidentPA(key.t, va)
		if !resident {
			return fmt.Errorf("core: tracked page (%d, %#x) not resident", key.t, va)
		}
		_, valid := tw.k.Task(key.t).Space().Translate(va)
		if tw.gang != nil {
			// The pte holds the union validity; this member's view is
			// whether it holds the page invalid itself.
			valid = !tw.gang.holdsInvalid(tw, key)
		}
		if inTLB && !valid {
			return fmt.Errorf("core: (%d, %#x) in simulated TLB but page invalid", key.t, va)
		}
		if !inTLB && valid {
			return fmt.Errorf("core: (%d, %#x) not in simulated TLB but page valid", key.t, va)
		}
	}
	return nil
}
