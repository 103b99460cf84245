package tapeworm

import (
	"fmt"

	"tapeworm/internal/cache"
	"tapeworm/internal/cache2000"
	"tapeworm/internal/core"
	"tapeworm/internal/kernel"
	"tapeworm/internal/mach"
	"tapeworm/internal/mem"
	"tapeworm/internal/monster"
	"tapeworm/internal/pixie"
	"tapeworm/internal/telemetry"
	"tapeworm/internal/trace"
	"tapeworm/internal/workload"
)

// Re-exported types: the façade hands out the internal packages' types
// directly so that the full API surface (documented on the internal
// packages) is reachable from the root import.
type (
	// MachineConfig describes the simulated host machine.
	MachineConfig = mach.Config
	// SimConfig configures a Tapeworm simulation (mode, cache/TLB
	// geometry, sampling, handler cost model).
	SimConfig = core.Config
	// Simulator is an attached Tapeworm instance.
	Simulator = core.Tapeworm
	// SimStats aggregates a simulation's counters.
	SimStats = core.Stats
	// CacheConfig describes a simulated cache geometry.
	CacheConfig = cache.Config
	// TLBConfig describes a simulated TLB geometry.
	TLBConfig = cache.TLBConfig
	// Sampling selects the simulated subset of cache sets.
	Sampling = core.Sampling
	// Window bounds the measurement interval (warm-up/measure, in
	// retired instructions). Composes with Sampling; zero measures all.
	Window = core.Window
	// WorkloadSpec parameterizes a synthetic workload.
	WorkloadSpec = workload.Spec
	// Program generates a task's execution events.
	Program = kernel.Program
	// Task is a kernel task.
	Task = kernel.Task
	// Snapshot captures machine counters (Monster probe).
	Snapshot = monster.Snapshot
	// TraceBuffer is an in-memory address trace.
	TraceBuffer = trace.Buffer
	// TraceSim is the trace-driven Cache2000-style simulator.
	TraceSim = cache2000.Simulator
	// TraceSimConfig configures the trace-driven simulator.
	TraceSimConfig = cache2000.Config
	// TaskID identifies a task (0 is the kernel).
	TaskID = mem.TaskID
	// VAddr is a 32-bit virtual address.
	VAddr = mem.VAddr
	// Ref is one memory reference (virtual address + kind).
	Ref = mem.Ref
	// RefKind distinguishes instruction fetches, loads and stores.
	RefKind = mem.RefKind
	// Event is one step of a task program's execution.
	Event = kernel.Event
)

// Reference kinds.
const (
	IFetch = mem.IFetch
	Load   = mem.Load
	Store  = mem.Store
)

// Program event kinds.
const (
	EvRef     = kernel.EvRef
	EvSyscall = kernel.EvSyscall
	EvFork    = kernel.EvFork
	EvExit    = kernel.EvExit
)

// Simulation modes (see core.Mode).
const (
	ModeICache  = core.ModeICache
	ModeDCache  = core.ModeDCache
	ModeUnified = core.ModeUnified
	ModeTLB     = core.ModeTLB
)

// Cache indexing modes.
const (
	PhysIndexed = cache.PhysIndexed
	VirtIndexed = cache.VirtIndexed
)

// Replacement policies.
const (
	LRU    = cache.LRU
	FIFO   = cache.FIFO
	Random = cache.Random
)

// Handler cost models (Table 5 and the Section 4.3 ablations).
const (
	HandlerOptimized      = core.HandlerOptimized
	HandlerOriginalC      = core.HandlerOriginalC
	HandlerHardwareAssist = core.HandlerHardwareAssist
)

// FullSampling returns the no-sampling configuration.
func FullSampling() Sampling { return core.FullSampling() }

// DECstation returns the paper's primary platform model (a 25 MHz
// R3000-based DECstation 5000/200) with the given physical memory size in
// 4 KB frames.
func DECstation(frames int) MachineConfig { return mach.DECstation5000_200(frames) }

// Gateway486 returns the 486 PC port's machine model (no ECC diagnostics;
// TLB and breakpoint-based I-cache simulation only).
func Gateway486(frames int) MachineConfig { return mach.Gateway486(frames) }

// DECstation240 returns the R4000-based DECstation 5000/240: variable page
// sizes enable superpage TLB simulation, but its DMA engine destroys
// memory traps on I/O buffers — the port the paper says was "hindered".
func DECstation240(frames int) MachineConfig { return mach.DECstation5000_240(frames) }

// WWTNode returns an allocate-on-write SPARC node (the Wisconsin Wind
// Tunnel platform), on which data-cache simulation works.
func WWTNode(frames int) MachineConfig { return mach.WWTNode(frames) }

// Workloads lists the paper's eight workloads (Table 3) at the given
// instruction-scale divisor (100 reproduces the standard evaluation).
func Workloads(scale float64) []WorkloadSpec { return workload.Specs(scale) }

// WorkloadByName fetches one workload spec by name.
func WorkloadByName(name string, scale float64) (WorkloadSpec, error) {
	return workload.ByName(name, scale)
}

// SystemConfig configures a booted system.
type SystemConfig struct {
	// Machine is the host model; zero value boots a 32 MB DECstation.
	Machine MachineConfig
	// Seed drives kernel and workload streams.
	Seed uint64
	// PageSeed drives only physical frame allocation; varying it between
	// runs reproduces the paper's page-allocation measurement variance.
	PageSeed uint64
	// Telemetry, if non-nil, records this system's trap events and
	// end-of-run counters (see TelemetryCollector / internal/telemetry).
	Telemetry *TelemetryRun
}

// Telemetry re-exports: a collector aggregates runs into a metrics
// report; a run records one booted system's counters and trap events.
type (
	// TelemetryCollector aggregates committed telemetry runs.
	TelemetryCollector = telemetry.Collector
	// TelemetryConfig parameterizes a collector.
	TelemetryConfig = telemetry.Config
	// TelemetryRun records one run's counters, timing, and events.
	TelemetryRun = telemetry.Run
)

// NewTelemetryCollector creates a telemetry collector.
func NewTelemetryCollector(cfg TelemetryConfig) *TelemetryCollector {
	return telemetry.New(cfg)
}

// System is a booted machine + kernel ready to run workloads.
type System struct {
	k *kernel.Kernel
}

// NewSystem boots a machine and kernel. Nothing needs releasing when the
// system is done; the garbage collector reclaims it.
func NewSystem(cfg SystemConfig) (*System, error) {
	if cfg.Machine.Proc == nil {
		cfg.Machine = DECstation(8192)
	}
	kcfg := kernel.DefaultConfig(cfg.Machine, cfg.Seed)
	if cfg.PageSeed != 0 {
		kcfg.PageSeed = cfg.PageSeed
	}
	kcfg.Telemetry = cfg.Telemetry
	k, err := kernel.Boot(kcfg)
	if err != nil {
		return nil, err
	}
	return &System{k: k}, nil
}

// Kernel exposes the underlying kernel for advanced use (attributes,
// per-task statistics, hooks).
func (s *System) Kernel() *kernel.Kernel { return s.k }

// AttachTapeworm installs a Tapeworm simulation into the kernel. At most
// one simulator may be attached per system.
func (s *System) AttachTapeworm(cfg SimConfig) (*Simulator, error) {
	return core.Attach(s.k, cfg)
}

// LoadWorkload spawns one of the paper's workloads with the given Tapeworm
// simulate attribute (inherited by the workload's fork tree).
func (s *System) LoadWorkload(name string, scale float64, seed uint64, simulate bool) (*Task, error) {
	spec, err := workload.ByName(name, scale)
	if err != nil {
		return nil, err
	}
	prog, err := workload.NewPlanned(spec, seed)
	if err != nil {
		return nil, err
	}
	return s.k.Spawn(spec.Name, prog, simulate, simulate), nil
}

// SpawnProgram runs a custom Program as a task with the given Tapeworm
// attributes; use this to drive the simulator with your own workloads.
func (s *System) SpawnProgram(name string, prog Program, simulate, inherit bool) *Task {
	return s.k.Spawn(name, prog, simulate, inherit)
}

// AnnotatePixie attaches a Pixie-style annotator to task t, feeding an
// on-the-fly trace-driven simulator (the paper's baseline configuration).
// The returned TraceSim accumulates hits and misses as the system runs.
func (s *System) AnnotatePixie(t *Task, cfg TraceSimConfig) (*TraceSim, error) {
	if t == nil {
		return nil, fmt.Errorf("tapeworm: nil task")
	}
	sim, err := cache2000.New(cfg)
	if err != nil {
		return nil, err
	}
	sim.BindMachine(s.k.Machine())
	ann := pixie.NewOnTheFly(s.k.Machine(), sim)
	if len(cfg.Kinds) == 1 && cfg.Kinds[0] == mem.IFetch {
		ann.IOnly = true
	}
	ann.Annotate(s.k, t.ID)
	return sim, nil
}

// CaptureTrace attaches a Pixie-style annotator that records task t's
// user-level references into a trace buffer for later batch simulation.
func (s *System) CaptureTrace(t *Task, instructionFetchesOnly bool) (*TraceBuffer, error) {
	if t == nil {
		return nil, fmt.Errorf("tapeworm: nil task")
	}
	buf := &trace.Buffer{}
	ann := pixie.NewCapture(s.k.Machine(), buf)
	ann.IOnly = instructionFetchesOnly
	ann.Annotate(s.k, t.ID)
	return buf, nil
}

// Run executes until every workload task has exited, or maxInstructions
// have retired (0 = no limit).
func (s *System) Run(maxInstructions uint64) error {
	return s.k.Run(maxInstructions)
}

// Monitor probes the machine counters without perturbing the system, as
// the Monster logic analyzer does in the paper.
func (s *System) Monitor() Snapshot { return monster.Snap(s.k.Machine()) }

// Seconds converts the machine's elapsed cycles to simulated seconds.
func (s *System) Seconds() float64 {
	m := s.k.Machine()
	return m.Seconds(m.Cycles())
}

// Slowdown computes the paper's slowdown metric between an instrumented
// run and an uninstrumented run of the same workload.
func Slowdown(instrumented, normal Snapshot) float64 {
	return monster.Slowdown(instrumented, normal)
}
