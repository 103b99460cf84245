package kernel

import (
	"fmt"

	"tapeworm/internal/mach"
	"tapeworm/internal/mem"
	"tapeworm/internal/rng"
	"tapeworm/internal/telemetry"
	"tapeworm/internal/textwalk"
)

// Config parameterizes a kernel boot.
type Config struct {
	Machine mach.Config

	// Seed drives all kernel-internal randomness (service code walks,
	// data reference patterns). PageSeed drives only the physical frame
	// allocator; vary it between trials to reproduce page-allocation
	// variance (Table 9), pin it to remove that variance (Table 10).
	Seed     uint64
	PageSeed uint64

	// TapewormFrames is physical memory reserved for Tapeworm at boot.
	// The paper's implementation takes 256 KB = 64 pages, removing them
	// from the free pool (Section 4.2, Sources of Measurement Bias).
	TapewormFrames int

	// QuantumTicks is the scheduling quantum in clock ticks.
	QuantumTicks int

	// WithXServer and WithBSDServer control which servers boot. Both
	// default true via DefaultConfig.
	WithXServer   bool
	WithBSDServer bool

	// KernelDataRefs is the probability of a data reference after each
	// kernel instruction.
	KernelDataRefs float64

	// ServerFragBytesPerReq, when nonzero, widens each server's hot data
	// footprint by that many bytes per request handled — the long-running
	// memory-fragmentation effect of Section 4.2. Off by default so the
	// standard experiments run on a freshly-booted system.
	ServerFragBytesPerReq int

	// Telemetry, when non-nil, receives trap-level trace events and
	// end-of-run counter snapshots for this boot. Nil disables telemetry
	// at zero cost on the reference hot path.
	Telemetry *telemetry.Run
}

// DefaultConfig returns a kernel configuration on the given machine model.
func DefaultConfig(m mach.Config, seed uint64) Config {
	return Config{
		Machine:        m,
		Seed:           seed,
		PageSeed:       seed ^ 0x9a9e, // distinct but derived; override per trial
		TapewormFrames: 64,
		QuantumTicks:   2,
		WithXServer:    true,
		WithBSDServer:  true,
		KernelDataRefs: 0.28,
	}
}

// Kernel is the simulated operating system. It implements mach.OS.
type Kernel struct {
	cfg    Config
	m      *mach.Machine
	layout *kernelLayout
	hooks  MemSimHooks

	tasks   []*Task // indexed by TaskID
	runq    []*Task // runnable workload tasks, round-robin
	cur     int
	resched bool
	ticks   uint64
	inClock bool
	inDMA   bool // delivering deviceDMA's bracketing PageRemoved

	fa       *frameAllocator
	resident residentQueue

	// rngKernel drives process-level kernel code (syscall paths, fork,
	// exit, scheduling). rngIntr and rngVM are separate streams for
	// interrupt-level code and the VM fault path: both can preempt
	// process-level kexec mid-run, and giving them their own sources keeps
	// a handler's draws from perturbing the stream of the code it
	// interrupted.
	rngKernel *rng.Source
	rngIntr   *rng.Source
	rngVM     *rng.Source

	entryW, clockW, schedW, vmW, forkW *textwalk.Walker
	// softVmW and softSchedW are dedicated softclock walkers: the deferred
	// tick half runs at interrupt level and may fire while a process-level
	// kexec is mid-way through vmW or schedW; separate walkers keep the
	// interrupted walk's position intact.
	softVmW, softSchedW *textwalk.Walker
	svcW                [numServices]*textwalk.Walker
	kdata               *dataGen

	servers map[ServerKind]*server

	tracer    Tracer
	traceTask mem.TaskID

	compInstr   [NumComponents]uint64
	trueECCErrs uint64
	pageOuts    uint64
	forks       uint64
	exits       uint64
	userSpawned int
	userExited  int

	// stopUser/stopMach are the RunUntilUser/RunUntilInstr targets
	// (zero = none). Unlike Run's maxInstr limit they leave the compiled
	// and batched fast paths engaged, trading a per-reference-exact stop
	// for a deterministic op-boundary stop: the checks sit at compiled-op
	// and scheduling boundaries, so the overshoot past the target is a
	// pure function of the (deterministic) stream, never of timing.
	stopUser uint64
	stopMach uint64
}

// residentQueue is a FIFO of (task, vpn) page-ins used to choose page-out
// victims when physical memory is exhausted.
type residentQueue struct {
	entries []residentEntry
	head    int
}

type residentEntry struct {
	tid mem.TaskID
	vpn uint32
}

func (q *residentQueue) push(tid mem.TaskID, vpn uint32) {
	q.entries = append(q.entries, residentEntry{tid, vpn})
}

func (q *residentQueue) pop() (residentEntry, bool) {
	for q.head < len(q.entries) {
		e := q.entries[q.head]
		q.head++
		if q.head > 4096 && q.head*2 > len(q.entries) {
			q.entries = append([]residentEntry(nil), q.entries[q.head:]...)
			q.head = 0
		}
		return e, true
	}
	return residentEntry{}, false
}

// Boot creates the machine and kernel, reserves kernel and Tapeworm
// memory, and starts the configured servers.
func Boot(cfg Config) (*Kernel, error) {
	k := &Kernel{cfg: cfg, servers: make(map[ServerKind]*server)}
	var err error
	k.m, err = mach.New(cfg.Machine, k)
	if err != nil {
		return nil, err
	}
	k.m.SetTelemetry(cfg.Telemetry)
	k.layout = newKernelLayout()

	pageSize := cfg.Machine.PageSize
	kframes := k.layout.kernelFrames(pageSize)
	reserved := kframes + cfg.TapewormFrames
	if reserved >= cfg.Machine.Frames {
		return nil, fmt.Errorf("kernel: %d frames of physical memory cannot hold %d reserved frames",
			cfg.Machine.Frames, reserved)
	}
	k.fa = newFrameAllocator(cfg.Machine.Frames, reserved, rng.New(cfg.PageSeed).Split("frames"))

	k.rngKernel = rng.New(cfg.Seed).Split("kernel")
	k.rngIntr = rng.New(cfg.Seed).Split("kintr")
	k.rngVM = rng.New(cfg.Seed).Split("kvm")
	params := textwalk.DefaultParams()
	params.CallProb = 0.05
	mk := func(region textwalk.Region, label string) *textwalk.Walker {
		return textwalk.MustNew(k.rngKernel.Split(label), region, params, k.layout.helpers)
	}
	k.entryW = mk(k.layout.entry, "entry")
	k.clockW = mk(k.layout.clock, "clock")
	k.schedW = mk(k.layout.sched, "sched")
	k.vmW = mk(k.layout.vmFault, "vm")
	k.forkW = mk(k.layout.fork, "fork")
	k.softVmW = mk(k.layout.vmFault, "softvm")
	k.softSchedW = mk(k.layout.sched, "softsched")
	for i := range serviceTable {
		k.svcW[i] = mk(k.layout.services[i], fmt.Sprintf("svc-%d", i))
	}
	k.kdata = newDataGen(k.rngKernel.Split("kdata"), k.layout.data, 8<<10, 0.35)

	// Task 0 is the kernel itself.
	kt := &Task{ID: mem.KernelTask, Name: "kernel", space: newAddrSpace(pageSize)}
	k.tasks = []*Task{kt}

	if cfg.WithBSDServer {
		t := k.newTask("bsd-server", nil, false, false)
		t.Server = true
		k.servers[BSDServer] = newServer(BSDServer, t, rng.New(cfg.Seed))
	}
	if cfg.WithXServer {
		t := k.newTask("x-server", nil, false, false)
		t.Server = true
		k.servers[XServer] = newServer(XServer, t, rng.New(cfg.Seed))
	}
	return k, nil
}

// MustBoot is Boot but panics on error.
func MustBoot(cfg Config) *Kernel {
	k, err := Boot(cfg)
	if err != nil {
		panic(err)
	}
	return k
}

// Machine returns the underlying machine.
func (k *Kernel) Machine() *mach.Machine { return k.m }

// Telemetry returns the telemetry run attached at boot (nil when
// telemetry is disabled). Tapeworm picks it up from here at Attach.
func (k *Kernel) Telemetry() *telemetry.Run { return k.cfg.Telemetry }

// ReportTelemetry snapshots kernel event totals and the per-component
// instruction split into the attached telemetry run, and has the
// machine report its own counters and timing. A no-op when telemetry is
// disabled.
func (k *Kernel) ReportTelemetry() {
	tel := k.cfg.Telemetry
	if tel == nil {
		return
	}
	k.m.ReportTelemetry()
	tel.SetCounter("instr_kernel", k.compInstr[CompKernel])
	tel.SetCounter("instr_server", k.compInstr[CompServer])
	tel.SetCounter("instr_user", k.compInstr[CompUser])
	tel.SetCounter("kernel_true_ecc_errors", k.trueECCErrs)
	tel.SetCounter("kernel_page_outs", k.pageOuts)
	tel.SetCounter("kernel_forks", k.forks)
	tel.SetCounter("kernel_exits", k.exits)
	tel.SetCounter("kernel_clock_ticks", k.ticks)
}

// SetHooks attaches a kernel-resident memory simulator (Tapeworm).
func (k *Kernel) SetHooks(h MemSimHooks) { k.hooks = h }

// ReleaseBuffers does nothing: a kernel's arrays are plain allocations
// that the garbage collector reclaims. The method is kept only because
// the benchmark runner in perfbench/ still calls it.
func (k *Kernel) ReleaseBuffers() {}

// Tracer observes the user-mode memory references of one annotated task,
// the way a Pixie-rewritten binary emits its own address trace. Like
// Pixie, a tracer sees a single task and no kernel or server activity.
type Tracer interface {
	Trace(t mem.TaskID, r mem.Ref)
}

// SetTracer annotates task tid with tr (nil removes the annotation).
func (k *Kernel) SetTracer(tid mem.TaskID, tr Tracer) {
	k.tracer = tr
	k.traceTask = tid
}

// Task returns the task with the given ID, or nil.
func (k *Kernel) Task(id mem.TaskID) *Task {
	if int(id) < len(k.tasks) {
		return k.tasks[id]
	}
	return nil
}

// Tasks returns all tasks ever created (including exited ones).
func (k *Kernel) Tasks() []*Task { return k.tasks }

// Server returns the server task of the given kind, or nil.
func (k *Kernel) Server(kind ServerKind) *Task {
	if s := k.servers[kind]; s != nil {
		return s.task
	}
	return nil
}

// ComponentOf classifies a task ID for per-component accounting.
func (k *Kernel) ComponentOf(id mem.TaskID) Component {
	if id == mem.KernelTask {
		return CompKernel
	}
	if t := k.Task(id); t != nil && t.Server {
		return CompServer
	}
	return CompUser
}

// ComponentInstructions returns instructions executed per component.
func (k *Kernel) ComponentInstructions() [NumComponents]uint64 { return k.compInstr }

// Stats bundles kernel event totals.
type Stats struct {
	TrueECCErrors uint64
	PageOuts      uint64
	Forks         uint64
	Exits         uint64
	ClockTicks    uint64
	UserSpawned   int
	UserExited    int
}

// Stats returns kernel event totals.
func (k *Kernel) Stats() Stats {
	return Stats{
		TrueECCErrors: k.trueECCErrs,
		PageOuts:      k.pageOuts,
		Forks:         k.forks,
		Exits:         k.exits,
		ClockTicks:    k.ticks,
		UserSpawned:   k.userSpawned,
		UserExited:    k.userExited,
	}
}

// newTask allocates a task structure and address space.
func (k *Kernel) newTask(name string, prog Program, simulate, inherit bool) *Task {
	t := &Task{
		ID:       mem.TaskID(len(k.tasks)),
		Name:     name,
		Simulate: simulate,
		Inherit:  inherit,
		prog:     prog,
		space:    newAddrSpace(k.cfg.Machine.PageSize),
	}
	k.tasks = append(k.tasks, t)
	return t
}

// Spawn creates a runnable workload task with the given Tapeworm
// attributes, as if started from a shell with (simulate=0, inherit=1):
// pass the attribute values the child should carry.
func (k *Kernel) Spawn(name string, prog Program, simulate, inherit bool) *Task {
	t := k.newTask(name, prog, simulate, inherit)
	k.runq = append(k.runq, t)
	k.userSpawned++
	if k.hooks != nil {
		k.hooks.TaskForked(nil, t)
	}
	return t
}

// SetAttributes implements tw_attributes(tid, simulate, inherit). A tid of
// zero signifies the kernel itself (Table 1).
func (k *Kernel) SetAttributes(id mem.TaskID, simulate, inherit bool) error {
	t := k.Task(id)
	if t == nil {
		return fmt.Errorf("kernel: no task %d", id)
	}
	t.Simulate = simulate
	t.Inherit = inherit
	return nil
}

// InDMABracket reports whether the PageRemoved hook now running is the
// predictable-DMA bracket's temporary unregistration, which the kernel
// takes only for a simulated task, rather than a real unmapping, which it
// reports whatever the simulate bit.
func (k *Kernel) InDMABracket() bool { return k.inDMA }

// UserTasksAlive reports the number of live workload tasks.
func (k *Kernel) UserTasksAlive() int { return len(k.runq) }

// userRunCap bounds how many user instructions the Run loop hands to
// ExecuteRun per scheduling decision. It trades batching efficiency
// against context-switch latency: a reschedule requested mid-run takes
// effect at the next run boundary, at most userRunCap instructions later
// (a few dozen instructions against a 10⁵-cycle quantum).
const userRunCap = 64

// Run executes workload tasks until they all exit or maxInstr total
// instructions have retired (0 = no limit). It returns an error only on
// unrecoverable conditions (out of memory with nothing evictable).
func (k *Kernel) Run(maxInstr uint64) error {
	for len(k.runq) > 0 {
		if maxInstr > 0 && k.m.Instructions() >= maxInstr {
			return nil
		}
		if k.stopUser|k.stopMach != 0 && k.stopReached() {
			return nil
		}
		t := k.pick()
		var ev Event
		if bp, ok := t.prog.(BatchProgram); ok && maxInstr == 0 &&
			(k.tracer == nil || t.ID != k.traceTask) {
			// Compiled path: replay pre-planned ops straight-line until
			// the next event op or a posted reschedule. Shares the batch
			// path's guards (bypassed under an instruction limit and for
			// traced tasks).
			if cp, ok := t.prog.(CompiledProgram); ok {
				if k.runCompiled(cp, t) {
					continue
				}
				// The cursor sits on an event op (or mid-run after a
				// Next-driven stint); NextRun below yields it exactly.
			}
			// Batched path: take whole sequential fetch runs. Bypassed
			// under an instruction limit (a bulk charge could overshoot
			// the per-reference stop point) and for a traced task (the
			// tracer must observe every reference).
			base, n, bev := bp.NextRun(userRunCap)
			if n > 0 {
				t.Instructions += uint64(n)
				k.compInstr[CompUser] += uint64(n)
				k.m.ExecuteRun(t.ID, base, n)
				continue
			}
			ev = bev
		} else {
			ev = t.prog.Next()
		}
		switch ev.Kind {
		case EvRef:
			if ev.Ref.Kind == mem.IFetch {
				t.Instructions++
				k.compInstr[CompUser]++
			}
			if k.tracer != nil && t.ID == k.traceTask {
				k.tracer.Trace(t.ID, ev.Ref)
			}
			k.m.Execute(t.ID, ev.Ref)
		case EvSyscall:
			if ev.Service < 0 || ev.Service >= numServices {
				return fmt.Errorf("kernel: task %d invoked unknown service %d", t.ID, ev.Service)
			}
			k.syscall(t, ev.Service)
		case EvFork:
			k.fork(t, ev.Child, ev.ShareText)
		case EvExit:
			k.exit(t)
		default:
			return fmt.Errorf("kernel: task %d emitted unknown event kind %d", t.ID, ev.Kind)
		}
	}
	return nil
}

// stopReached reports whether a RunUntilUser/RunUntilInstr target has
// been met.
func (k *Kernel) stopReached() bool {
	return (k.stopUser > 0 && k.compInstr[CompUser] >= k.stopUser) ||
		(k.stopMach > 0 && k.m.Instructions() >= k.stopMach)
}

// RunUntilUser executes until at least target user-component instructions
// have retired (or all workload tasks exit). The stop lands on a
// compiled-op or scheduling boundary — a deterministic point of the
// stream, at most CompiledRunCap user instructions past the target — and,
// unlike Run's maxInstr limit, the compiled and batched fast paths stay
// engaged, so fast-forwarding to a checkpoint boundary runs at full
// replay speed.
func (k *Kernel) RunUntilUser(target uint64) error {
	if k.compInstr[CompUser] >= target {
		return nil
	}
	k.stopUser = target
	err := k.Run(0)
	k.stopUser = 0
	return err
}

// RunUntilInstr is RunUntilUser over total retired machine instructions
// (user + server + kernel), the clock core.Window measures against.
func (k *Kernel) RunUntilInstr(target uint64) error {
	if k.m.Instructions() >= target {
		return nil
	}
	k.stopMach = target
	err := k.Run(0)
	k.stopMach = 0
	return err
}

// UserInstructions returns the retired user-component instruction count —
// the axis interval boundaries are defined on.
func (k *Kernel) UserInstructions() uint64 { return k.compInstr[CompUser] }

// runCompiled replays t's pre-compiled ops until the next event op or a
// posted reschedule, reporting whether it executed anything. Skipping
// pick() between ops is exact: with no reschedule posted and the run
// queue unchanged (forks, exits and syscalls are all event ops, which
// break the loop), pick() would return the same task untouched. The
// reschedule check sits after every op, exactly where the interpreter
// loop's per-batch pick() call observes it.
func (k *Kernel) runCompiled(cp CompiledProgram, t *Task) bool {
	pos, aligned := cp.OpPos()
	if !aligned {
		return false
	}
	ops := cp.Ops()
	start := pos
	checkStop := k.stopUser|k.stopMach != 0
	for pos < len(ops) {
		op := &ops[pos]
		if op.Kind == OpRun {
			t.Instructions += uint64(op.N)
			k.compInstr[CompUser] += uint64(op.N)
			k.m.ExecuteRun(t.ID, op.VA, int(op.N))
		} else if op.Kind == OpData {
			k.m.Execute(t.ID, mem.Ref{VA: op.VA, Kind: op.Ref})
		} else {
			break
		}
		pos++
		if k.resched {
			break
		}
		if checkStop && k.stopReached() {
			break
		}
	}
	if pos == start {
		return false
	}
	cp.SeekOp(pos)
	return true
}

// pick returns the task to run next, performing a context switch when the
// scheduler has requested one.
func (k *Kernel) pick() *Task {
	if k.cur >= len(k.runq) {
		k.cur = 0
	}
	if k.resched && len(k.runq) > 1 {
		k.resched = false
		k.cur = (k.cur + 1) % len(k.runq)
		// No translation invalidation: memo entries are task-keyed and a
		// switch changes no page table; the host TLB is task-tagged too,
		// so residency guarantees survive. Any line or TLB eviction the
		// switch code below causes is caught by the displaced-key drops.
		k.kexec(k.schedW, kSwitchLen)
	} else {
		k.resched = false
	}
	return k.runq[k.cur]
}

// kexecRunCap bounds the walker run length pulled per NextRun call in the
// kernel execution loops, so a long straight-line stretch still interleaves
// its data references at a realistic cadence.
const kexecRunCap = 64

// kexec executes n process-level kernel instructions from walker w, with
// the configured kernel data-reference mix.
func (k *Kernel) kexec(w *textwalk.Walker, n int) {
	k.kexecSrc(w, n, k.rngKernel)
}

// kexecIntr is kexec at interrupt level, drawing the data mix from the
// interrupt stream so a handler never perturbs the draws of the code it
// preempted.
func (k *Kernel) kexecIntr(w *textwalk.Walker, n int) {
	k.kexecSrc(w, n, k.rngIntr)
}

// kexecVM is kexec on the VM fault path (page fault and page-out), which
// nests inside user and server execution the same way.
func (k *Kernel) kexecVM(w *textwalk.Walker, n int) {
	k.kexecSrc(w, n, k.rngVM)
}

// kexecSrc executes n kernel instructions from walker w, drawing the data
// reference mix from src. Sequential fetch stretches go to ExecuteRun in
// one call; each stretch ends where a data reference fires so the
// instruction/data interleaving is preserved per instruction.
func (k *Kernel) kexecSrc(w *textwalk.Walker, n int, src *rng.Source) {
	p := k.cfg.KernelDataRefs
	for n > 0 {
		lim := n
		if lim > kexecRunCap {
			lim = kexecRunCap
		}
		base, run := w.NextRun(lim)
		n -= run
		for run > 0 {
			d := 0
			data := false
			for d < run {
				d++
				if p > 0 && src.Bool(p) {
					data = true
					break
				}
			}
			k.compInstr[CompKernel] += uint64(d)
			k.m.ExecuteRun(mem.KernelTask, base, d)
			base += mem.VAddr(4 * d)
			run -= d
			if data {
				k.m.Execute(mem.KernelTask, k.kdata.next())
			}
		}
	}
}

// syscall runs one kernel service invocation, including any server-side
// handling, synchronously on behalf of t.
func (k *Kernel) syscall(t *Task, svc ServiceID) {
	if svc < 0 || svc >= numServices {
		panic(fmt.Sprintf("kernel: bad service %d", svc))
	}
	d := &serviceTable[svc]
	k.kexec(k.entryW, kEntryLen)

	masked := int(float64(d.pathLen) * d.maskedFrac)
	k.kexec(k.svcW[svc], d.pathLen-masked)
	if masked > 0 {
		// Critical section: interrupts off. ECC traps raised by these
		// references are lost — the masking bias of Section 4.2.
		k.m.SetIntMasked(true)
		k.kexec(k.svcW[svc], masked)
		k.m.SetIntMasked(false)
	}

	if d.server != NoServer {
		srv := k.servers[d.server]
		if srv != nil {
			k.kexec(k.entryW, kIPCLen)
			k.serverHandle(srv, svc, d.serverLen)
			k.kexec(k.entryW, kIPCLen)
		}
	}
	if svc == SvcRead || svc == SvcWrite {
		k.deviceDMA(t, svc)
	}
	k.kexec(k.entryW, kExitLen)
}

// deviceDMA models the I/O transfer behind the read and write fast paths:
// a device DMAs into (read) or out of (write) the caller's buffer. On
// machines with predictable DMA, the kernel brackets the transfer with
// tw_remove_page/tw_register_page so the simulator's traps never meet the
// device — the workaround the 5000/200 port used. Machines without that
// property (the 5000/240) silently destroy traps on DMA writes and take
// spurious faults on DMA reads of trapped buffers; the machine counts
// both (Section 4.3).
func (k *Kernel) deviceDMA(t *Task, svc ServiceID) {
	const xfer = 512 // bytes per transfer
	va := DataBase   // the caller's first data page serves as I/O buffer
	pa, ok := k.ResidentPA(t.ID, va)
	if !ok {
		return // no buffer established yet
	}
	// DMA moves data, not page tables: no memoized translation goes
	// stale here. Host-cache effects (destroyed lines, destroyed traps)
	// are handled inside DMAWrite via FlushHostLine, which aborts any
	// batched run through the generation counter.
	bracket := k.cfg.Machine.PredictableDMA && t.Simulate && k.hooks != nil
	if bracket {
		k.inDMA = true
		k.hooks.PageRemoved(t.ID, pa, va)
		k.inDMA = false
	}
	if svc == SvcRead {
		k.m.DMAWrite(pa, xfer)
	} else {
		k.m.DMARead(pa, xfer)
	}
	if bracket {
		k.hooks.PageRegistered(t.ID, pa, va, mem.Load)
	}
}

// serverHandle executes one request in the server task's context.
func (k *Kernel) serverHandle(s *server, svc ServiceID, n int) {
	w := s.walkers[svc]
	if w == nil {
		panic(fmt.Sprintf("kernel: %v has no handler for %v", s.kind, svc))
	}
	if k.cfg.ServerFragBytesPerReq > 0 {
		s.data.grow(uint32(k.cfg.ServerFragBytesPerReq))
	}
	for n > 0 {
		lim := n
		if lim > kexecRunCap {
			lim = kexecRunCap
		}
		base, run := w.NextRun(lim)
		n -= run
		for run > 0 {
			d := 0
			data := false
			for d < run {
				d++
				if k.rngKernel.Bool(s.dataP) {
					data = true
					break
				}
			}
			s.task.Instructions += uint64(d)
			k.compInstr[CompServer] += uint64(d)
			k.m.ExecuteRun(s.task.ID, base, d)
			base += mem.VAddr(4 * d)
			run -= d
			if data {
				k.m.Execute(s.task.ID, s.data.next())
			}
		}
	}
}

// fork implements task creation with Tapeworm attribute inheritance:
//
//	child.simulate <- parent.inherit
//	child.inherit  <- parent.inherit
//
// The child shares the parent's text pages (reference-counted); data and
// stack pages are faulted privately.
func (k *Kernel) fork(parent *Task, childProg Program, shareText bool) {
	k.kexec(k.forkW, kForkLen)
	child := k.newTask(parent.Name+"+", childProg, parent.Inherit, parent.Inherit)
	child.Parent = parent.ID

	if shareText {
		// Share text mappings: the same physical page gains a second
		// virtual mapping, which must still be registered with the
		// simulator so it can reference-count shared entries (Section
		// 3.2) — a new task benefits from lines brought into a
		// physically-indexed cache by its sibling, as on a real system.
		k.m.InvalidateTranslation()
		pageSize := uint32(k.cfg.Machine.PageSize)
		parent.space.pages(func(vpn uint32, p pte) {
			va := mem.VAddr(vpn) * mem.VAddr(pageSize)
			if va >= DataBase || !p.resident() {
				return
			}
			k.fa.share(p.frame())
			child.space.set(vpn, p|pteShared|pteValid)
			k.resident.push(child.ID, vpn)
			if child.Simulate && k.hooks != nil {
				k.hooks.PageRegistered(child.ID, mem.PAddr(p.frame()*pageSize), va, mem.IFetch)
			}
		})
	}

	k.runq = append(k.runq, child)
	k.userSpawned++
	k.forks++
	if k.hooks != nil {
		k.hooks.TaskForked(parent, child)
	}
}

// exit tears a task down: every mapping is removed (with PageRemoved hooks
// so Tapeworm can flush the simulated cache, mirroring the host machine's
// behaviour on unmapping), frames are released, and the task leaves the
// run queue.
func (k *Kernel) exit(t *Task) {
	k.kexec(k.entryW, kExitTaskLen)
	// The exiting task's frames return to the allocator; its memoized
	// translations must die before any frame is handed to another task.
	k.m.InvalidateTranslation()
	pageSize := uint32(k.cfg.Machine.PageSize)
	t.space.pages(func(vpn uint32, p pte) {
		if !p.resident() {
			return
		}
		pa := mem.PAddr(p.frame() * pageSize)
		va := mem.VAddr(vpn) * mem.VAddr(pageSize)
		// Removal is unconditional: even if tw_attributes cleared the
		// simulate bit after pages were registered, the simulator must
		// see the unmapping or its per-frame state goes stale (the hook
		// ignores mappings it never registered).
		if k.hooks != nil {
			k.hooks.PageRemoved(t.ID, pa, va)
		}
		k.fa.release(p.frame())
	})
	t.space = newAddrSpace(int(pageSize))
	t.State = Exited
	for i, rt := range k.runq {
		if rt == t {
			k.runq = append(k.runq[:i], k.runq[i+1:]...)
			if k.cur > i {
				k.cur--
			}
			break
		}
	}
	k.userExited++
	k.exits++
	if k.hooks != nil {
		k.hooks.TaskExited(t.ID)
	}
}

// --- mach.OS implementation ---

// Translate resolves a user virtual address through the task's page table.
func (k *Kernel) Translate(t mem.TaskID, va mem.VAddr, _ mem.RefKind) (mem.PAddr, bool) {
	task := k.Task(t)
	if task == nil {
		return 0, false
	}
	return task.space.Translate(va)
}

// PageFault services a translation failure: either a page-valid-bit trap
// planted by Tapeworm's TLB mode (resident but invalid), or a demand fill.
func (k *Kernel) PageFault(t mem.TaskID, va mem.VAddr, kind mem.RefKind) (mem.PAddr, bool) {
	task := k.Task(t)
	if task == nil {
		return 0, false
	}
	as := task.space
	vpn := as.vpn(va)
	p := as.lookup(vpn)
	pageSize := uint32(k.cfg.Machine.PageSize)

	if p.resident() && !p.valid() {
		// The page is really in memory; the valid bit was cleared to
		// force this trap. Hand it to the simulator.
		pa := mem.PAddr(p.frame()*pageSize) + mem.PAddr(uint32(va)&(pageSize-1))
		if k.hooks != nil && k.hooks.InvalidPageTrap(t, va, mem.PAddr(p.frame()*pageSize), kind) {
			return pa, true
		}
		// No simulator claimed it; restore validity ourselves.
		as.set(vpn, p|pteValid)
		return pa, true
	}

	// Demand fill through the VM fault path.
	k.kexecVM(k.vmW, kFaultLen)
	frame, ok := k.fa.alloc()
	for !ok {
		if !k.evictOnePage() {
			return 0, false // out of memory, nothing evictable
		}
		frame, ok = k.fa.alloc()
	}
	as.set(vpn, pte(frame)|pteValid|pteResident)
	k.resident.push(t, vpn)
	pa0 := mem.PAddr(frame * pageSize)
	va0 := mem.VAddr(vpn) * mem.VAddr(pageSize)
	if task.Simulate && k.hooks != nil {
		// "After the page is marked valid by the VM system,
		// tw_register_page() sets traps on all memory locations in the
		// page" (Section 3.2).
		k.hooks.PageRegistered(t, pa0, va0, kind)
	}
	return pa0 + mem.PAddr(uint32(va)&(pageSize-1)), true
}

// evictOnePage pages out the oldest resident page (FIFO), returning false
// when nothing can be evicted.
func (k *Kernel) evictOnePage() bool {
	pageSize := uint32(k.cfg.Machine.PageSize)
	for {
		e, ok := k.resident.pop()
		if !ok {
			return false
		}
		task := k.Task(e.tid)
		if task == nil || task.State == Exited {
			continue
		}
		p := task.space.lookup(e.vpn)
		if !p.resident() {
			continue
		}
		k.kexecVM(k.vmW, kPageOutLen)
		pa := mem.PAddr(p.frame() * pageSize)
		va := mem.VAddr(e.vpn) * mem.VAddr(pageSize)
		// Only this task's mapping of this page changes; every other
		// memoized translation still matches its page-table entry.
		k.m.InvalidatePage(e.tid, va)
		if k.hooks != nil {
			k.hooks.PageRemoved(e.tid, pa, va)
		}
		k.fa.release(p.frame())
		task.space.set(e.vpn, 0)
		k.pageOuts++
		return true
	}
}

// ECCTrap routes a memory-error trap: Tapeworm traps go to the simulator,
// true errors are corrected (single-bit) or recorded (double-bit) by the
// kernel, exactly the discrimination of Section 3.2 footnote 1.
func (k *Kernel) ECCTrap(t mem.TaskID, va mem.VAddr, pa mem.PAddr, kind mem.RefKind) {
	if k.hooks != nil && k.hooks.ECCTrap(t, va, pa, kind) {
		return
	}
	k.trueECCErrs++
	k.m.Phys().CorrectWord(pa)
}

// BreakpointTrap routes an instruction breakpoint to the simulator.
func (k *Kernel) BreakpointTrap(t mem.TaskID, va mem.VAddr, pa mem.PAddr) {
	if k.hooks != nil {
		k.hooks.BreakpointTrap(t, va, pa)
	}
}

// ClockInterrupt runs the timer handler: interrupt path instructions
// (masked, as on real hardware) and scheduler bookkeeping. More elapsed
// cycles mean more of these per workload instruction — the time-dilation
// mechanism of Figure 4.
func (k *Kernel) ClockInterrupt() {
	if k.inClock {
		return // coalesce ticks raised while handling a tick
	}
	k.inClock = true
	k.ticks++
	k.m.SetIntMasked(true)
	k.kexecIntr(k.clockW, kIntrLen)
	k.m.SetIntMasked(false)
	// Softclock: every few ticks the deferred half runs — callout queues,
	// statistics, page-ager scans — touching a broader slice of kernel
	// text and data. This work scales with elapsed *time*, so a dilated
	// system pays proportionally more of it; it is the dominant term in
	// the time-dilation bias of Figure 4.
	if k.ticks%2 == 0 {
		k.kexecIntr(k.softVmW, kSoftclockLen)
		k.kexecIntr(k.softSchedW, kSoftclockLen/2)
	}
	if k.cfg.QuantumTicks > 0 && k.ticks%uint64(k.cfg.QuantumTicks) == 0 {
		k.resched = true
	}
	k.inClock = false
}

// --- Support for Tapeworm's machine-dependent layers ---

// ForEachKernelPage enumerates the kernel's kseg0 pages (text regions and
// the data region) so tw_attributes(0, 1, _) can register them.
func (k *Kernel) ForEachKernelPage(fn func(pa mem.PAddr, va mem.VAddr, kind mem.RefKind)) {
	pageSize := mem.VAddr(k.cfg.Machine.PageSize)
	dataStart := k.layout.data.Base
	for va := mach.KernelBase; va < k.layout.textEnd; va += pageSize {
		kind := mem.IFetch
		if va >= dataStart {
			kind = mem.Load
		}
		fn(mem.PAddr(va-mach.KernelBase), va, kind)
	}
}

// SetPageValid flips the hardware valid bit of a resident page without
// touching the software resident bit: the page-valid-bit trap primitive
// used for TLB simulation. It fails if the page is not resident.
func (k *Kernel) SetPageValid(t mem.TaskID, va mem.VAddr, valid bool) error {
	task := k.Task(t)
	if task == nil {
		return fmt.Errorf("kernel: no task %d", t)
	}
	vpn := task.space.vpn(va)
	p := task.space.lookup(vpn)
	if !p.resident() {
		return fmt.Errorf("kernel: task %d page %#x not resident", t, va)
	}
	// A cleared valid bit is a planted trap; a memoized translation would
	// let the fast path sail past it. Setting it changes translations too.
	// The flip touches exactly one page-table entry, and the simulator
	// replants a trap on every simulated miss — a full memo flush here
	// would fire thousands of times per instrumented run.
	k.m.InvalidatePage(t, va)
	if valid {
		task.space.set(vpn, p|pteValid)
	} else {
		task.space.set(vpn, p&^pteValid)
	}
	return nil
}

// ResidentPA returns the physical page address of a resident page (even
// if its valid bit is cleared), for the simulator's bookkeeping.
func (k *Kernel) ResidentPA(t mem.TaskID, va mem.VAddr) (mem.PAddr, bool) {
	task := k.Task(t)
	if task == nil {
		return 0, false
	}
	p := task.space.lookup(task.space.vpn(va))
	if !p.resident() {
		return 0, false
	}
	return mem.PAddr(p.frame() * uint32(k.cfg.Machine.PageSize)), true
}

// KernelTextPages returns the number of pages the kernel image occupies.
func (k *Kernel) KernelTextPages() int {
	return k.layout.kernelFrames(k.cfg.Machine.PageSize)
}
