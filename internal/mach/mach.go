// Package mach simulates the host machine that Tapeworm runs on: a 32-bit
// processor with physical memory carrying ECC check bits, real (host)
// caches and a host TLB that determine uninstrumented run time, a clock
// that raises periodic interrupts, breakpoint registers, and an
// instruction counter.
//
// This is the substitution for the paper's DECstation 5000/200 (see
// DESIGN.md): Tapeworm's behaviour depends on the host only through trap
// semantics and cycle accounting, so modelling those two faithfully lets
// every speed, bias and variance result re-emerge from first principles.
//
// The machine executes memory references on behalf of an OS (implemented
// by package kernel) and vectors traps back into it: page faults when a
// translation is invalid, ECC/memory-error traps when a host cache refill
// touches a word with inconsistent check bits, breakpoint traps, and clock
// interrupts. Instrumentation overhead is charged through ChargeOverhead
// and advances the same clock as base execution — which is precisely why
// time dilation (Figure 4) appears in simulations that slow the system
// down.
package mach

import (
	"fmt"
	"math/bits"

	"tapeworm/internal/arch"
	"tapeworm/internal/cache"
	"tapeworm/internal/mem"
	"tapeworm/internal/rng"
	"tapeworm/internal/telemetry"
)

// OS receives machine traps. Package kernel provides the implementation;
// Tapeworm registers itself with the kernel, not with the machine, because
// on the real system every trap vectors through kernel entry code first.
type OS interface {
	// Translate maps (task, va) to a physical address, or reports a page
	// fault. IsKernelVA addresses bypass translation (kseg0-style).
	Translate(t mem.TaskID, va mem.VAddr, k mem.RefKind) (mem.PAddr, bool)

	// PageFault handles an invalid translation, establishing a mapping and
	// returning the physical address. The handler may execute kernel
	// references and charge cycles on the machine. The bool distinguishes
	// a demand-zero fill from a fatal fault (false aborts the reference).
	PageFault(t mem.TaskID, va mem.VAddr, k mem.RefKind) (mem.PAddr, bool)

	// ECCTrap handles a memory-error trap raised during a host cache line
	// refill. pa is the first inconsistent word in the refilled line.
	ECCTrap(t mem.TaskID, va mem.VAddr, pa mem.PAddr, k mem.RefKind)

	// BreakpointTrap handles an instruction breakpoint at (task, va, pa).
	BreakpointTrap(t mem.TaskID, va mem.VAddr, pa mem.PAddr)

	// ClockInterrupt handles a timer tick. The handler typically runs
	// kernel code and may switch tasks.
	ClockInterrupt()
}

// Config describes a machine model.
type Config struct {
	Name string
	Proc *arch.Processor // capability matrix entry (Table 12)

	ClockHz uint64 // processor clock, cycles per second

	Frames   int // physical memory size in pages
	PageSize int // bytes per page

	// Host memory hierarchy. These are the *real* caches of the host
	// machine, not simulated ones: they set the baseline run time and,
	// crucially, ECC is checked only on host cache line refills.
	HostICache cache.Config
	HostDCache cache.Config
	HostTLB    cache.TLBConfig

	MissPenalty     int // cycles to refill a host cache line
	WritePenalty    int // cycles for a write-around store (no-allocate)
	TLBRefillCycles int // software-managed TLB refill cost

	ClockTickCycles uint64 // cycles between clock interrupts

	// PredictableDMA reports whether the kernel can learn a DMA
	// transfer's target pages before it runs (and so bracket the
	// transfer with tw_remove_page/tw_register_page). The 5000/200's
	// I/O system permits this; the 5000/240's does not — the difference
	// that "hindered" the port (Section 4.3).
	PredictableDMA bool

	// DMAChecksECC reports whether the DMA engine checks ECC as it reads
	// memory. When true, a device reading a Tapeworm-trapped buffer takes
	// a spurious memory fault that the kernel can only absorb by clearing
	// the trap (losing the miss).
	DMAChecksECC bool

	// NoFastPath disables the batched hit fast path (the translation
	// micro-cache and ExecuteRun's run-length execution), forcing every
	// reference through the per-reference path. The fast path is exact —
	// cycle counts, trap sequences and telemetry are byte-identical either
	// way — so this exists only for the experiment layer's reference
	// executor, for equivalence tests, and for benchmarking the speedup.
	NoFastPath bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Proc == nil {
		return fmt.Errorf("mach: config %q lacks a processor", c.Name)
	}
	if c.ClockHz == 0 {
		return fmt.Errorf("mach: config %q has zero clock rate", c.Name)
	}
	if err := mem.CheckPhysSize(c.Frames, c.PageSize); err != nil {
		return fmt.Errorf("mach: config %q: %w", c.Name, err)
	}
	if err := c.HostICache.Validate(); err != nil {
		return fmt.Errorf("mach: host icache: %w", err)
	}
	if err := c.HostDCache.Validate(); err != nil {
		return fmt.Errorf("mach: host dcache: %w", err)
	}
	if err := c.HostTLB.Validate(); err != nil {
		return fmt.Errorf("mach: host tlb: %w", err)
	}
	if c.ClockTickCycles == 0 {
		return fmt.Errorf("mach: config %q has no clock tick period", c.Name)
	}
	return nil
}

// DECstation5000_200 returns the machine model of the paper's primary
// platform: a 25 MHz MIPS R3000 with 64 KB direct-mapped I- and D-caches
// (4-word lines, no allocate on write), a 64-entry fully-associative
// software-managed TLB, and ECC memory checked on 4-word refills.
func DECstation5000_200(frames int) Config {
	proc, err := arch.ByName("MIPS R3000")
	if err != nil {
		panic(err)
	}
	return Config{
		Name:     "DECstation 5000/200",
		Proc:     proc,
		ClockHz:  25_000_000,
		Frames:   frames,
		PageSize: 4096,
		HostICache: cache.Config{
			Name: "host-I", Size: 64 << 10, LineSize: 16, Assoc: 1,
		},
		HostDCache: cache.Config{
			Name: "host-D", Size: 64 << 10, LineSize: 16, Assoc: 1,
		},
		HostTLB:         cache.R3000TLB(),
		MissPenalty:     15,
		WritePenalty:    2,
		TLBRefillCycles: 20,
		// 100 Hz scheduler clock at 25 MHz.
		ClockTickCycles: 250_000,
		PredictableDMA:  true,
	}
}

// Gateway486 returns the model of the 486-based Gateway PC port: no ECC
// diagnostic access, so only page-valid-bit (TLB) simulation is possible.
func Gateway486(frames int) Config {
	proc, err := arch.ByName("Intel i486")
	if err != nil {
		panic(err)
	}
	return Config{
		Name:     "Gateway 486",
		Proc:     proc,
		ClockHz:  33_000_000,
		Frames:   frames,
		PageSize: 4096,
		HostICache: cache.Config{
			Name: "host-U", Size: 8 << 10, LineSize: 16, Assoc: 4,
		},
		HostDCache: cache.Config{
			Name: "host-U2", Size: 8 << 10, LineSize: 16, Assoc: 4,
		},
		HostTLB: cache.TLBConfig{
			Name: "i486", Entries: 32, Assoc: 4, PageSize: 4096, Replace: cache.LRU,
		},
		MissPenalty:     12,
		WritePenalty:    2,
		TLBRefillCycles: 30, // hardware page walk
		ClockTickCycles: 330_000,
		PredictableDMA:  true,
	}
}

// DECstation5000_240 returns the machine behind the paper's Section 4.3
// porting anecdote: an R4000-class DECstation with variable page sizes
// (enabling superpage TLB simulation, cf. [Talluri94]) but a DMA engine
// implemented differently from the 5000/200's — its DMA writes recompute
// ECC straight into memory, destroying Tapeworm traps on I/O buffers with
// no event the kernel can hook (PredictableDMA false).
func DECstation5000_240(frames int) Config {
	proc, err := arch.ByName("MIPS R4000")
	if err != nil {
		panic(err)
	}
	return Config{
		Name:     "DECstation 5000/240",
		Proc:     proc,
		ClockHz:  40_000_000,
		Frames:   frames,
		PageSize: 4096,
		HostICache: cache.Config{
			Name: "host-I", Size: 64 << 10, LineSize: 16, Assoc: 1,
		},
		HostDCache: cache.Config{
			Name: "host-D", Size: 64 << 10, LineSize: 16, Assoc: 1,
		},
		HostTLB: cache.TLBConfig{
			Name: "r4000", Entries: 64, PageSize: 4096, Replace: cache.Random,
			Reserved: 8,
		},
		MissPenalty:     14,
		WritePenalty:    2,
		TLBRefillCycles: 18,
		ClockTickCycles: 400_000,
		PredictableDMA:  false,
		DMAChecksECC:    true,
	}
}

// WWTNode returns a SPARC CM-5-node-like machine (the Wisconsin Wind
// Tunnel platform): allocate-on-write caches, which is what makes
// data-cache simulation possible there [Reinhardt93].
func WWTNode(frames int) Config {
	proc, err := arch.ByName("SPARC")
	if err != nil {
		panic(err)
	}
	return Config{
		Name:     "CM-5 node (SPARC)",
		Proc:     proc,
		ClockHz:  32_000_000,
		Frames:   frames,
		PageSize: 4096,
		HostICache: cache.Config{
			Name: "host-I", Size: 64 << 10, LineSize: 32, Assoc: 1,
		},
		HostDCache: cache.Config{
			Name: "host-D", Size: 64 << 10, LineSize: 32, Assoc: 1,
		},
		HostTLB:         cache.TLBConfig{Name: "sparc", Entries: 64, PageSize: 4096, Replace: cache.LRU},
		MissPenalty:     20,
		WritePenalty:    2,
		TLBRefillCycles: 25,
		ClockTickCycles: 320_000,
		PredictableDMA:  true,
	}
}

// KernelBase is the start of the directly-mapped kernel virtual segment
// (kseg0 on MIPS): kernel VAs map to physical addresses by subtracting
// KernelBase, bypassing the TLB.
const KernelBase mem.VAddr = 0x8000_0000

// IsKernelVA reports whether va lies in the kernel's direct-mapped segment.
func IsKernelVA(va mem.VAddr) bool { return va >= KernelBase }

// Machine is the simulated host. Create with New; drive with Execute.
type Machine struct {
	cfg  Config
	phys *mem.Phys
	ctl  *mem.Controller
	os   OS

	hostI   *cache.Cache
	hostD   *cache.Cache
	hostTLB *cache.TLB

	cycles   uint64 // total elapsed cycles (base + overhead)
	overhead uint64 // cycles attributed to instrumentation
	instret  uint64 // instructions retired (IFetch count)

	nextTick     uint64
	intMasked    bool
	pendingClock bool
	latchedECC   []latchedTrap // ECC events raised while masked
	inHandler    int           // trap-handler nesting depth

	// ledgered selects gang trap physics (see SetLedgeredTraps): memory
	// traps are checked per referenced word instead of on host cache
	// refills, arming a trap does not flush host lines, and delivery is
	// immediate even while interrupts are masked. Together these make the
	// executed reference stream — cycles, ticks, scheduling — independent
	// of which traps are armed, which is what lets N ganged simulators
	// observe byte-identical streams regardless of the union trap set.
	ledgered bool

	// breakpoints is the set of armed instruction-breakpoint words. As
	// with the ECC Tapeworm bit, a word is armed or not: arming an armed
	// word is a no-op and one clear disarms it. Which simulators hold a
	// word is a gang's record (core.Gang's member masks), not the
	// machine's.
	breakpoints map[mem.PAddr]bool
	// bpPages counts armed breakpoints per physical page frame. Together
	// with the empty-map guard it keeps the per-instruction breakpoint
	// check off the map on the hot path: a run with no breakpoints pays
	// one length test, and a run with breakpoints probes the map only
	// for fetches into pages that actually carry one.
	bpPages   []uint32
	pageShift uint
	pageMask  uint32

	// Host cache line sizes, hoisted out of the per-reference path
	// (Cache.Config returns the whole config struct by value).
	lineI, lineD int

	// gen counts state perturbations that can invalidate a batched run's
	// standing assumptions (trap handlers, flushes, DMA, breakpoint and
	// translation changes, tick delivery). runFast snapshots it before
	// charging guaranteed-hit words and falls back to per-reference
	// execution the moment it moves.
	gen uint64

	// Translation micro-cache: the last few (task, virtual page) → frame
	// resolutions, each carrying the guarantee that the page's host-TLB
	// entry is still resident. A hit short-circuits both the os.Translate
	// interface call (a page-table map walk) and the host-TLB simulation;
	// see Execute for why the skip is exact. xlOn gates the whole memo
	// (fast path enabled and the host TLB maps machine-sized pages);
	// xlSingle degrades it to one live entry when the host TLB uses LRU
	// replacement, whose stamps would go stale under a multi-entry skip.
	xl       [xlSlots]xlEntry
	xlLive   int // xlSingle mode: index of the one live entry
	xlOn     bool
	xlSingle bool

	// Fast-path self-counters, exposed via FastPathStats for tests and
	// benchmarks. Deliberately kept out of ReportTelemetry: telemetry
	// metrics must be byte-identical with the fast path on and off.
	xlHits    uint64 // references resolved through the micro-cache
	runWords  uint64 // instructions charged in bulk by runFast
	pageInval uint64 // InvalidatePage calls (union valid-bit transitions)

	// tel, when non-nil, receives trap-level trace events. It is consulted
	// only on trap paths (already rare), so a disabled run pays one nil
	// test per trap and nothing per reference.
	tel *telemetry.Run

	// Event counters for bias analysis.
	eccTraps      uint64 // delivered ECC traps
	eccLatched    uint64 // ECC traps delivered late from the mask latch
	maskedDrops   uint64 // ECC checks suppressed by latch overflow
	silentClears  uint64 // traps destroyed by no-allocate write-around
	dmaClears     uint64 // traps destroyed by DMA writes
	dmaFaults     uint64 // spurious DMA faults on trapped buffers
	trueErrors    uint64 // non-Tapeworm syndromes delivered
	clockTicks    uint64
	pageFaults    uint64
	hostTLBMisses uint64
	bpArms        uint64 // breakpoint arm operations
	bpTraps       uint64 // delivered breakpoint traps
}

// xlSlots sizes the translation micro-cache, direct-mapped on the low
// virtual page number bits. Live entries are bounded by the host TLB's
// capacity regardless (every fill follows a host-TLB access and every
// host-TLB eviction drops its entry); the extra slots only spread the
// TLB-resident pages out so data and instruction pages with clashing low
// VPN bits stop thrashing each other.
const xlSlots = 256

// xlEntry is one translation micro-cache slot.
type xlEntry struct {
	ok   bool
	task mem.TaskID
	vpn  uint32
	pa   mem.PAddr // page-aligned physical address of the frame
}

// New builds a machine from cfg with traps vectored into os.
func New(cfg Config, os OS) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if os == nil {
		return nil, fmt.Errorf("mach: nil OS")
	}
	return build(cfg, os, mem.NewPhys(cfg.Frames, cfg.PageSize)), nil
}

// NewFromImage builds a machine whose physical memory forks a checkpoint
// image copy-on-write instead of booting fresh. Everything else — host
// caches, TLB, breakpoint tables — starts pristine, exactly as New leaves
// them (a captured machine is quiesced: zero cycles, empty caches). The
// image's geometry must match cfg.
func NewFromImage(cfg Config, os OS, img *mem.Image) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if os == nil {
		return nil, fmt.Errorf("mach: nil OS")
	}
	if img.Frames() != cfg.Frames || img.PageSize() != cfg.PageSize {
		return nil, fmt.Errorf("mach: checkpoint image geometry %d frames × %d bytes does not match config %d × %d",
			img.Frames(), img.PageSize(), cfg.Frames, cfg.PageSize)
	}
	return build(cfg, os, mem.NewPhysFromImage(img)), nil
}

// CaptureImage snapshots the machine's physical memory for checkpointing.
func (m *Machine) CaptureImage() *mem.Image { return mem.CaptureImage(m.phys) }

// build assembles a Machine around an already-constructed Phys; cfg and
// os are pre-validated.
func build(cfg Config, os OS, phys *mem.Phys) *Machine {
	m := &Machine{
		cfg:         cfg,
		phys:        phys,
		ctl:         mem.NewController(phys),
		os:          os,
		hostI:       cache.MustNew(cfg.HostICache, nil),
		hostD:       cache.MustNew(cfg.HostDCache, nil),
		hostTLB:     cache.MustNewTLB(cfg.HostTLB, rng.New(0x7457)),
		nextTick:    cfg.ClockTickCycles,
		breakpoints: make(map[mem.PAddr]bool),
		bpPages:     make([]uint32, cfg.Frames),
		pageShift:   uint(bits.TrailingZeros(uint(cfg.PageSize))),
		pageMask:    uint32(cfg.PageSize - 1),
	}
	// The micro-cache's host-TLB-hit guarantee only makes sense when one
	// TLB entry covers exactly one machine page; exotic configs fall back
	// to the per-reference path.
	m.xlOn = !cfg.NoFastPath && cfg.HostTLB.PageSize == cfg.PageSize
	m.xlSingle = cfg.HostTLB.Replace == cache.LRU
	m.lineI = m.hostI.Config().LineSize
	m.lineD = m.hostD.Config().LineSize
	return m
}

// MustNew is New but panics on error.
func MustNew(cfg Config, os OS) *Machine {
	m, err := New(cfg, os)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// SetTelemetry attaches a telemetry run to the machine's trap paths. A
// nil run (the default) disables tracing at the cost of one pointer
// test per trap.
func (m *Machine) SetTelemetry(tel *telemetry.Run) { m.tel = tel }

// Phys returns physical memory (for the kernel's frame allocator and for
// Tapeworm's trap state queries).
func (m *Machine) Phys() *mem.Phys { return m.phys }

// Controller returns the memory-controller diagnostic interface. Only
// Tapeworm's machine-dependent layer should touch it.
func (m *Machine) Controller() *mem.Controller { return m.ctl }

// Cycles returns total elapsed cycles.
func (m *Machine) Cycles() uint64 { return m.cycles }

// OverheadCycles returns cycles attributed to instrumentation (Tapeworm
// handlers, Pixie annotation, on-the-fly trace processing).
func (m *Machine) OverheadCycles() uint64 { return m.overhead }

// BaseCycles returns cycles the workload would cost without
// instrumentation interleaved (total minus overhead). Note that a dilated
// run has slightly more base cycles than an uninstrumented run — that
// difference is the Figure 4 bias, and it is deliberate.
func (m *Machine) BaseCycles() uint64 { return m.cycles - m.overhead }

// Instructions returns the number of instructions retired.
func (m *Machine) Instructions() uint64 { return m.instret }

// Seconds converts a cycle count to seconds at the machine's clock rate.
func (m *Machine) Seconds(cycles uint64) float64 {
	return float64(cycles) / float64(m.cfg.ClockHz)
}

// ClockState is the machine's architectural time state: the clock, the
// overhead split, the retired-instruction counter and the clock-interrupt
// cadence. It is what a mid-run checkpoint must carry so that a forked
// machine's ticks fire on the same instruction boundaries as the
// original's. Host cache and TLB contents are deliberately absent —
// like a context switch on real hardware, a fork resumes with cold host
// state, and measurement warm-up absorbs the difference.
type ClockState struct {
	Cycles     uint64
	Overhead   uint64
	Instret    uint64
	NextTick   uint64
	ClockTicks uint64
}

// ClockState snapshots the architectural time state. The machine must be
// quiescent: not inside a trap handler and not with interrupts masked
// (both are true at kernel main-loop boundaries).
func (m *Machine) ClockState() ClockState {
	return ClockState{
		Cycles:     m.cycles,
		Overhead:   m.overhead,
		Instret:    m.instret,
		NextTick:   m.nextTick,
		ClockTicks: m.clockTicks,
	}
}

// SetClockState restores a snapshot taken by ClockState on a freshly
// built machine, so a checkpoint fork resumes mid-run time exactly.
func (m *Machine) SetClockState(cs ClockState) {
	m.cycles = cs.Cycles
	m.overhead = cs.Overhead
	m.instret = cs.Instret
	m.nextTick = cs.NextTick
	m.clockTicks = cs.ClockTicks
}

// Charge adds base execution cycles (kernel service code, stalls).
func (m *Machine) Charge(c uint64) { m.cycles += c }

// ChargeOverhead adds instrumentation cycles. They advance the same clock
// as base cycles — overhead dilates time, as on the real machine.
func (m *Machine) ChargeOverhead(c uint64) {
	m.cycles += c
	m.overhead += c
}

// latchedTrap is an ECC event raised while interrupts were masked, held in
// the memory controller's error registers (augmented by Tapeworm's
// "special code around these regions", Section 4.2) until unmask.
type latchedTrap struct {
	t    mem.TaskID
	va   mem.VAddr
	pa   mem.PAddr
	kind mem.RefKind
}

// eccLatchDepth bounds how many masked ECC events can be held: the
// controller latches the first error and Tapeworm's "special code around
// these regions" (Section 4.2) logs the rest into a small software buffer
// drained at unmask. Events beyond the buffer are lost outright: the
// refill completes unchecked and the miss goes uncounted until the line
// leaves the host cache again — the residual measurement bias the paper
// describes for kernel code run with interrupts disabled.
const eccLatchDepth = 256

// SetIntMasked sets the processor interrupt mask. While masked, ECC traps
// latch (bounded) and clock ticks defer; both deliver on unmask.
func (m *Machine) SetIntMasked(on bool) {
	m.intMasked = on
	m.gen++ // mask changes and drained handlers void batch assumptions
	if on {
		return
	}
	for len(m.latchedECC) > 0 {
		lt := m.latchedECC[0]
		m.latchedECC = m.latchedECC[1:]
		// The trap may have been cleared (page removal) between latch
		// and delivery; skip stale entries.
		if !m.phys.TrappedWord(lt.pa) {
			continue
		}
		if m.phys.Classify(lt.pa&^3) == mem.SynTapeworm {
			m.eccTraps++
			m.eccLatched++
		} else {
			m.trueErrors++
		}
		if m.tel != nil {
			m.tel.Event(telemetry.EvECCLatched, int32(lt.t), uint32(lt.va), uint32(lt.pa), m.cycles)
		}
		m.inHandler++
		m.os.ECCTrap(lt.t, lt.va, lt.pa, lt.kind)
		m.inHandler--
	}
	m.latchedECC = nil
	if m.pendingClock {
		m.pendingClock = false
		m.clockTicks++
		if m.tel != nil {
			m.tel.Event(telemetry.EvClock, 0, 0, 0, m.cycles)
		}
		m.os.ClockInterrupt()
	}
}

// IntMasked reports the current interrupt mask.
func (m *Machine) IntMasked() bool { return m.intMasked }

// SetLedgeredTraps switches the machine to gang trap physics. Solo
// simulation reproduces the real DECstation's refill-coupled ECC checking,
// whose delivered stream depends on host cache residency, line flushes on
// arming, and the interrupt mask — all functions of the *union* trap set,
// which would let one ganged simulator's traps perturb another's observed
// stream (the Figure 4 dilation leak, in event form). In ledgered mode the
// machine instead checks the referenced word itself on every access,
// arming needs no host-line flush, and delivery is immediate even while
// interrupts are masked; handler overhead is charged to per-simulator
// ledgers (core), never to this clock. The executed stream is then
// provably independent of the trap set, so each member observes the exact
// stream of its solo run. Gang-eligible experiments always run in this
// mode (even gangs of one), keeping ganged and solo tables byte-identical.
func (m *Machine) SetLedgeredTraps(on bool) { m.ledgered = on }

// checkWordTrap is the ledgered-mode trap check: if the single word at pa
// has inconsistent ECC, classify and deliver it immediately. The handlers
// reached from here must not charge this machine's clock or disturb host
// cache state (core's gang layer guarantees both), so the only machine
// effect is the gen bump — which perturbs batching, never results.
func (m *Machine) checkWordTrap(t mem.TaskID, r mem.Ref, pa mem.PAddr) {
	w := pa &^ 3
	if !m.phys.TrappedWord(w) {
		return
	}
	if m.phys.Classify(w) == mem.SynTapeworm {
		m.eccTraps++
	} else {
		m.trueErrors++
	}
	if m.tel != nil {
		m.tel.Event(telemetry.EvECC, int32(t), uint32(r.VA), uint32(w), m.cycles)
	}
	m.gen++
	m.inHandler++
	m.os.ECCTrap(t, r.VA, w, r.Kind)
	m.inHandler--
}

// FlushHostLine removes the host cache lines containing pa from both host
// caches, forcing the next access to refill (and hence to check ECC).
// tw_set_trap must call this or resident lines would never re-trap.
func (m *Machine) FlushHostLine(pa mem.PAddr, size int) {
	if size <= 0 {
		size = 1
	}
	m.hostI.InvalidateRange(0, uint32(pa), size)
	m.hostD.InvalidateRange(0, uint32(pa), size)
	m.gen++ // resident lines just lost their guaranteed-hit status
}

// DMAWrite models a device writing [pa, pa+size): the transfer recomputes
// ECC for every word it stores, silently destroying any Tapeworm traps in
// the buffer and any true memory errors with them, and invalidates the
// host cache lines it overlaps. The machine-check logic never runs — no
// handler sees the lost traps.
func (m *Machine) DMAWrite(pa mem.PAddr, size int) {
	if size <= 0 {
		size = mem.WordBytes
	}
	p := m.phys
	for off := 0; off < size; off += mem.WordBytes {
		w := (pa + mem.PAddr(off)) &^ 3
		if !p.TrappedWord(w) {
			continue
		}
		if p.Classify(w) == mem.SynTapeworm {
			m.ctl.ClearTrap(w, mem.WordBytes)
			m.dmaClears++
		} else {
			// A true error, with or without a Tapeworm bit: the whole word
			// is restored, and a lost trap still reaches the destroyed hook.
			p.CorrectWord(w)
		}
	}
	m.FlushHostLine(pa, size)
	m.cycles += uint64(size / mem.WordBytes) // bus occupancy
}

// DMARead models a device reading [pa, pa+size). On machines whose DMA
// engine checks ECC (the 5000/240), reading a Tapeworm-trapped word raises
// a spurious memory fault; the kernel can only recover by restoring
// correct check bits, losing the miss.
func (m *Machine) DMARead(pa mem.PAddr, size int) {
	if size <= 0 {
		size = mem.WordBytes
	}
	if m.cfg.DMAChecksECC {
		for off := 0; off < size; off += mem.WordBytes {
			w := pa + mem.PAddr(off)
			if m.phys.TrappedWord(w) && m.phys.Classify(w&^3) == mem.SynTapeworm {
				m.ctl.ClearTrap(w&^3, mem.WordBytes)
				m.dmaFaults++
			}
		}
	}
	m.cycles += uint64(size / mem.WordBytes)
}

// SetBreakpoint arms the instruction breakpoint on the word containing
// physical address pa. Arming an armed word is a no-op.
func (m *Machine) SetBreakpoint(pa mem.PAddr) {
	w := pa &^ 3
	if m.breakpoints[w] {
		return
	}
	m.breakpoints[w] = true
	m.bpArms++
	m.gen++
	if f := int(w >> m.pageShift); f < len(m.bpPages) {
		m.bpPages[f]++
	}
}

// ClearBreakpoint disarms the breakpoint on the word containing pa.
// Clearing an unarmed word is a no-op.
func (m *Machine) ClearBreakpoint(pa mem.PAddr) {
	w := pa &^ 3
	if !m.breakpoints[w] {
		return
	}
	m.gen++
	delete(m.breakpoints, w)
	if f := int(w >> m.pageShift); f < len(m.bpPages) {
		m.bpPages[f]--
	}
}

// BreakpointArmed reports whether the word containing pa carries an armed
// breakpoint. For tests and assertions.
func (m *Machine) BreakpointArmed(pa mem.PAddr) bool { return m.breakpoints[pa&^3] }

// Counters reports machine event totals.
type Counters struct {
	ECCTraps        uint64
	ECCLatched      uint64
	MaskedDrops     uint64
	SilentClears    uint64
	DMAClears       uint64
	DMAFaults       uint64
	TrueErrors      uint64
	ClockTicks      uint64
	PageFaults      uint64
	HostTLBMisses   uint64
	BreakpointArms  uint64
	BreakpointTraps uint64
}

// Counters returns a snapshot of the machine's event counters.
func (m *Machine) Counters() Counters {
	return Counters{
		ECCTraps:        m.eccTraps,
		ECCLatched:      m.eccLatched,
		MaskedDrops:     m.maskedDrops,
		SilentClears:    m.silentClears,
		DMAClears:       m.dmaClears,
		DMAFaults:       m.dmaFaults,
		TrueErrors:      m.trueErrors,
		ClockTicks:      m.clockTicks,
		PageFaults:      m.pageFaults,
		HostTLBMisses:   m.hostTLBMisses,
		BreakpointArms:  m.bpArms,
		BreakpointTraps: m.bpTraps,
	}
}

// ReportTelemetry snapshots the machine's counters, ECC flip totals, and
// cycle accounting into the attached telemetry run at end of run. A
// no-op when no telemetry is attached.
func (m *Machine) ReportTelemetry() {
	if m.tel == nil {
		return
	}
	m.tel.SetCounter("ecc_traps", m.eccTraps)
	m.tel.SetCounter("ecc_latched", m.eccLatched)
	m.tel.SetCounter("masked_drops", m.maskedDrops)
	m.tel.SetCounter("silent_clears", m.silentClears)
	m.tel.SetCounter("dma_clears", m.dmaClears)
	m.tel.SetCounter("dma_faults", m.dmaFaults)
	m.tel.SetCounter("true_errors", m.trueErrors)
	m.tel.SetCounter("clock_ticks", m.clockTicks)
	m.tel.SetCounter("page_faults", m.pageFaults)
	m.tel.SetCounter("host_tlb_misses", m.hostTLBMisses)
	m.tel.SetCounter("breakpoint_arms", m.bpArms)
	m.tel.SetCounter("breakpoint_traps", m.bpTraps)
	set, cleared := m.phys.Stats()
	m.tel.SetCounter("ecc_flips_set", set)
	m.tel.SetCounter("ecc_flips_cleared", cleared)
	m.tel.SetTiming(m.cycles, m.overhead, m.instret)
}

// Execute runs one memory reference for task t. This is the machine's
// fetch-execute step: translation (with page-fault vectoring), host TLB
// and host cache cost accounting, ECC checking on refill, breakpoint
// checking, and clock interrupt delivery.
func (m *Machine) Execute(t mem.TaskID, r mem.Ref) {
	if r.Kind == mem.IFetch {
		m.instret++
	}
	m.cycles++ // base cost of the operation itself

	// Translation. Kernel segment addresses map directly and bypass the
	// TLB; user addresses go through the OS page tables and the host TLB,
	// unless the translation micro-cache still holds the page. A memo hit
	// is exact: the entry is invalidated on every page-table update
	// (InvalidateTranslation) and whenever the host TLB evicts the page
	// (the displaced-key check below), so on a hit the full path would
	// have resolved the same frame and the host TLB would have hit — the
	// skipped Access is reproduced by NoteHits (see cache.Cache.NoteHits
	// for why skipping the stamp update preserves replacement behaviour).
	var pa mem.PAddr
	if IsKernelVA(r.VA) {
		pa = mem.PAddr(r.VA - KernelBase)
		if !m.phys.Contains(pa) {
			panic(fmt.Sprintf("mach: kernel VA %#x beyond physical memory", r.VA))
		}
	} else if e := m.xlFind(t, uint32(r.VA)>>m.pageShift); e != nil {
		pa = e.pa | mem.PAddr(uint32(r.VA)&m.pageMask)
		m.xlHits++
		m.hostTLB.NoteHits(1)
	} else {
		var ok bool
		memoizable := true
		pa, ok = m.os.Translate(t, r.VA, r.Kind)
		if !ok {
			m.pageFaults++
			m.gen++
			pa, ok = m.os.PageFault(t, r.VA, r.Kind)
			if !ok {
				return // fatal fault; reference abandoned
			}
			if m.tel != nil {
				m.tel.Event(telemetry.EvPageFault, int32(t), uint32(r.VA), uint32(pa), m.cycles)
			}
			// Fault service may have replanted a trap on this very page
			// (TLB mode arms a fresh valid-bit trap inside
			// PageRegistered); the reference proceeds, but the
			// translation must not be memoized past a cleared valid bit.
			_, memoizable = m.os.Translate(t, r.VA, r.Kind)
		}
		hit, displaced, evicted := m.hostTLB.Access(t, r.VA)
		if !hit {
			m.hostTLBMisses++
			m.cycles += uint64(m.cfg.TLBRefillCycles)
		}
		if evicted {
			m.xlDropTLB(displaced)
		}
		if memoizable {
			m.xlFill(t, uint32(r.VA)>>m.pageShift, pa&^mem.PAddr(m.pageMask))
		}
	}

	// Breakpoint check (instruction granularity). The empty-map guard
	// and the per-page summary keep the map probe off the common path:
	// uninstrumented runs never touch the map, and breakpoint-mechanism
	// runs touch it only for fetches into pages carrying a breakpoint.
	if r.Kind == mem.IFetch && len(m.breakpoints) != 0 &&
		m.bpPages[pa>>m.pageShift] != 0 && m.breakpoints[pa&^3] {
		m.bpTraps++
		if m.tel != nil {
			m.tel.Event(telemetry.EvBreakpoint, int32(t), uint32(r.VA), uint32(pa), m.cycles)
		}
		m.gen++
		m.os.BreakpointTrap(t, r.VA, pa)
	}

	// Ledgered mode checks the referenced word itself, decoupled from host
	// cache residency. No-allocate stores are excluded: they never refill,
	// so their traps are destroyed silently (write-around) in both modes.
	if m.ledgered && (r.Kind != mem.Store || m.cfg.Proc.AllocateOnWrite) {
		m.checkWordTrap(t, r, pa)
	}

	// Host cache access; ECC is checked only when a line is refilled.
	hc := m.hostI
	lineSize := m.lineI
	if r.Kind != mem.IFetch {
		hc, lineSize = m.hostD, m.lineD
	}

	if r.Kind == mem.Store && !m.cfg.Proc.AllocateOnWrite {
		// No-allocate-on-write: a store miss writes around the cache.
		// The write recomputes ECC for the stored word, silently
		// destroying any Tapeworm trap there without a handler call —
		// the exact effect that defeated data-cache simulation on the
		// DECstation (Section 4.4).
		if !hc.AccessIfHit(0, uint32(pa)) {
			m.cycles += uint64(m.cfg.WritePenalty)
			if m.phys.TrappedWord(pa) && m.phys.Classify(pa&^3) == mem.SynTapeworm {
				m.ctl.ClearTrap(pa&^3, mem.WordBytes)
				m.silentClears++
			}
		}
	} else {
		hit, _, _ := hc.Access(0, uint32(pa))
		if !hit {
			m.cycles += uint64(m.cfg.MissPenalty)
			m.checkECCOnRefill(t, r, mem.PAddr(hc.LineAddr(uint32(pa))), lineSize)
		}
	}

	// Clock interrupt delivery.
	if m.cycles >= m.nextTick {
		m.deliverTick(t)
	}
}

// deliverTick rearms the clock and delivers (or defers) the interrupt; the
// tail of both Execute and runFast, so tick timing is one code path.
func (m *Machine) deliverTick(t mem.TaskID) {
	m.nextTick = m.cycles + m.cfg.ClockTickCycles
	if m.intMasked {
		m.pendingClock = true
		return
	}
	m.gen++
	m.clockTicks++
	if m.tel != nil {
		m.tel.Event(telemetry.EvClock, int32(t), 0, 0, m.cycles)
	}
	m.os.ClockInterrupt()
}

// ExecuteRun executes n sequential instruction fetches for task t at base,
// base+4, ..., base+4(n-1). It is exactly equivalent to n Execute calls
// with IFetch references — same cycles, same trap sequence, same telemetry
// — but charges guaranteed-hit streaks in bulk through runFast, falling
// back to per-reference Execute at the first hazard. Callers (textwalk
// consumers) supply runs that are sequential by construction; runs that
// cross a page boundary are simply split at it.
func (m *Machine) ExecuteRun(t mem.TaskID, base mem.VAddr, n int) {
	for n > 0 {
		done := m.runFast(t, base, n)
		if done == 0 {
			m.Execute(t, mem.Ref{VA: base, Kind: mem.IFetch})
			done = 1
		}
		base += mem.VAddr(4 * done)
		n -= done
	}
}

// runFast charges up to n sequential instruction fetches starting at base,
// returning how many it completed (0 = caller must take the per-reference
// path for the first one). The batch is exact, not approximate:
//
//   - The first word of each host cache line goes through a real
//     cache.Access — misses pay the refill and check ECC with the precise
//     per-word VA, just like Execute.
//   - The remaining words of a line are charged in bulk only while they are
//     provably hits: the line was just observed resident, the page's
//     translation is pinned by the micro-cache (user) or direct mapping
//     (kernel), the page carries no armed breakpoint, and no trap handler
//     has run since (gen unchanged — every handler dispatch bumps gen).
//   - Bulk charging is clamped so the clock tick fires at the exact cycle
//     the per-reference path would fire it.
func (m *Machine) runFast(t mem.TaskID, base mem.VAddr, n int) int {
	if uint32(base)&3 != 0 {
		return 0
	}
	var pa mem.PAddr
	user := !IsKernelVA(base)
	if user {
		e := m.xlFind(t, uint32(base)>>m.pageShift)
		if e == nil {
			return 0
		}
		pa = e.pa | mem.PAddr(uint32(base)&m.pageMask)
	} else {
		if m.cfg.NoFastPath {
			return 0
		}
		pa = mem.PAddr(base - KernelBase)
		if !m.phys.Contains(pa) {
			return 0 // let Execute report the bad address
		}
	}
	// The memo guarantee and the direct mapping both end at the page
	// boundary; ExecuteRun re-enters for the rest of the run.
	if pageLeft := int(uint32(m.cfg.PageSize)-(uint32(pa)&m.pageMask)) / 4; n > pageLeft {
		n = pageLeft
	}
	if len(m.breakpoints) != 0 && m.bpPages[pa>>m.pageShift] != 0 {
		return 0
	}
	lineSize := m.lineI
	done := 0
	for done < n {
		gen := m.gen
		m.instret++
		m.cycles++
		if user {
			m.xlHits++
			m.hostTLB.NoteHits(1)
		}
		hit, _, _ := m.hostI.Access(0, uint32(pa))
		if !hit {
			m.cycles += uint64(m.cfg.MissPenalty)
			m.checkECCOnRefill(t, mem.Ref{VA: base + mem.VAddr(4*done), Kind: mem.IFetch},
				mem.PAddr(m.hostI.LineAddr(uint32(pa))), lineSize)
		}
		if m.ledgered {
			m.checkWordTrap(t, mem.Ref{VA: base + mem.VAddr(4*done), Kind: mem.IFetch}, pa)
		}
		done++
		pa += mem.PAddr(4)
		if m.cycles >= m.nextTick {
			m.deliverTick(t)
			return done
		}
		if m.gen != gen {
			return done // a handler ran; batch assumptions void
		}
		// Words to the end of this host line are guaranteed hits now.
		w := (int(m.hostI.LineAddr(uint32(pa-4))) + lineSize - int(pa)) / 4
		if left := n - done; w > left {
			w = left
		}
		if tickLeft := int(m.nextTick - m.cycles); w > tickLeft {
			w = tickLeft
		}
		// Ledgered mode delivers per referenced word, so a bulk-charged
		// streak must be trap-free; a trapped streak degrades to the
		// per-word loop above, which delivers at the exact reference.
		if m.ledgered && w > 0 && m.phys.Trapped(pa, 4*w) {
			w = 0
		}
		if w > 0 {
			m.instret += uint64(w)
			m.cycles += uint64(w)
			m.hostI.NoteHits(w)
			if user {
				m.hostTLB.NoteHits(w)
				m.xlHits += uint64(w)
			}
			m.runWords += uint64(w)
			done += w
			pa += mem.PAddr(4 * w)
			if m.cycles >= m.nextTick {
				m.deliverTick(t)
				return done
			}
		}
	}
	return done
}

// xlFind returns the micro-cache entry for (task, vpn), or nil.
func (m *Machine) xlFind(t mem.TaskID, vpn uint32) *xlEntry {
	if !m.xlOn {
		return nil
	}
	if e := &m.xl[vpn&(xlSlots-1)]; e.ok && e.task == t && e.vpn == vpn {
		return e
	}
	return nil
}

// xlFill installs a translation the full path just resolved. The host-TLB
// Access that precedes every call is what establishes the entry's
// guarantee: the page is TLB-resident right now, and it stays memoized
// only until InvalidateTranslation or an observed displacement drops it.
func (m *Machine) xlFill(t mem.TaskID, vpn uint32, framePA mem.PAddr) {
	if !m.xlOn {
		return
	}
	slot := int(vpn & (xlSlots - 1))
	if m.xlSingle {
		// LRU host TLB: a multi-entry memo would let interleaved pages
		// skip the stamp updates that order evictions, so keep exactly
		// one live entry — same-page streaks still win, and every
		// cross-page access goes through the full stamping path.
		m.xl[m.xlLive].ok = false
		m.xlLive = slot
	}
	m.xl[slot] = xlEntry{ok: true, task: t, vpn: vpn, pa: framePA}
}

// xlDropTLB invalidates memo entries whose page the host TLB just evicted;
// their TLB-residency guarantee is void, so the next reference must take
// the full path (and charge the TLB miss) exactly as the slow path would.
func (m *Machine) xlDropTLB(k cache.Key) {
	vpn := k.Addr >> m.pageShift
	if e := &m.xl[vpn&(xlSlots-1)]; e.ok && e.task == k.Task && e.vpn == vpn {
		e.ok = false
	}
}

// InvalidateTranslation flushes the translation micro-cache and aborts any
// in-flight batched run. The kernel calls it on every event that can
// change established translations behind the fast path's back and touches
// more than one page (or an unbounded set): task exit (frame reuse), fork
// text sharing, and TLB shootdown. Single-page updates use InvalidatePage
// instead; task switches and DMA invalidate nothing (task-tagged entries
// survive a switch, and DMA moves data, not page tables).
func (m *Machine) InvalidateTranslation() {
	m.xl = [xlSlots]xlEntry{}
	m.gen++
}

// InvalidatePage drops the memoized translation for one (task, page) and
// aborts any in-flight batched run, without disturbing the rest of the
// memo. It is the targeted form of InvalidateTranslation for kernel
// operations that change exactly one page-table entry — valid-bit flips
// (tw_set_trap replants a trap on every simulated miss) and single-page
// eviction — where a full flush would empty the memo thousands of times
// per run and drag the fast path back to full-path refill costs.
func (m *Machine) InvalidatePage(t mem.TaskID, va mem.VAddr) {
	vpn := uint32(va) >> m.pageShift
	if e := &m.xl[vpn&(xlSlots-1)]; e.ok && e.task == t && e.vpn == vpn {
		e.ok = false
	}
	m.pageInval++
	m.gen++
}

// PageInvalidations counts InvalidatePage calls. Under gang attach the
// kernel flips a page's valid bit — and so invalidates the micro-cache —
// only when the *union* validity across members transitions; tests assert
// on this counter to pin that protocol down.
func (m *Machine) PageInvalidations() uint64 { return m.pageInval }

// FastPathStats reports the fast path's self-counters: references resolved
// through the translation micro-cache, and instructions charged in bulk by
// runFast. Deliberately not part of ReportTelemetry — telemetry must be
// byte-identical with the fast path on and off.
func (m *Machine) FastPathStats() (xlHits, runWords uint64) {
	return m.xlHits, m.runWords
}

// checkECCOnRefill scans the words of a refilled host line for inconsistent
// ECC and raises at most one memory-error trap per refill (the controller
// latches the first failing address).
func (m *Machine) checkECCOnRefill(t mem.TaskID, r mem.Ref, lineAddr mem.PAddr, lineSize int) {
	if m.ledgered {
		return // ledgered mode checks per referenced word instead
	}
	if !m.phys.Trapped(lineAddr, lineSize) {
		return
	}
	// Locate the first inconsistent word.
	var errAddr mem.PAddr
	found := false
	for off := 0; off < lineSize; off += mem.WordBytes {
		w := lineAddr + mem.PAddr(off)
		if m.phys.TrappedWord(w) {
			errAddr, found = w, true
			break
		}
	}
	if !found {
		return
	}
	if m.intMasked {
		// The error interrupt cannot be taken now. The controller (plus
		// Tapeworm's logging code around masked regions) latches a
		// bounded number of events for delivery at unmask; overflow is
		// lost until the line leaves the host cache again.
		if len(m.latchedECC) < eccLatchDepth {
			m.latchedECC = append(m.latchedECC, latchedTrap{t, r.VA, errAddr, r.Kind})
		} else {
			m.maskedDrops++
		}
		return
	}
	if m.phys.Classify(errAddr) == mem.SynTapeworm {
		m.eccTraps++
	} else {
		m.trueErrors++
	}
	if m.tel != nil {
		m.tel.Event(telemetry.EvECC, int32(t), uint32(r.VA), uint32(errAddr), m.cycles)
	}
	m.gen++
	m.inHandler++
	m.os.ECCTrap(t, r.VA, errAddr, r.Kind)
	m.inHandler--
}

// InHandler reports whether the machine is currently inside a trap handler
// (used by assertions in tests).
func (m *Machine) InHandler() bool { return m.inHandler > 0 }
