package kernel

// Mid-run checkpoints. Capture freezes a quiesced post-boot kernel;
// interval-replay simulation needs to freeze a kernel *mid-run*, at an
// interval boundary, so a representative interval can later be
// simulated on a fork without re-executing everything before it.
//
// A mid-run capture extends the boot image with a run state: the
// machine's architectural clock (mach.ClockState), the scheduler (run
// queue, current slot, pending reschedule, tick count), every live
// task's demand-faulted page table and its position in the compiled op
// stream (ProgramCursor), the resident-page FIFO, and the kernel's
// accounting counters. Everything else a checkpoint carries — rng
// streams, walker positions, server state, the frame allocator, the
// memory image — is captured by the same code as the post-boot path.
//
// Host cache, TLB and translation-memo contents are deliberately *not*
// captured: a fork resumes with cold host state, exactly like a context
// switch plus cache flush on real hardware. The divergence this causes
// against the original run is deterministic per checkpoint and is
// absorbed by the measurement warm-up that interval replay always
// schedules in front of its windows.
//
// Capture points are kernel main-loop boundaries only: no trap handler
// on the stack, interrupts unmasked, every compiled cursor on an op
// boundary. CaptureAt verifies all three and fails loudly otherwise.

import (
	"fmt"

	"tapeworm/internal/mach"
	"tapeworm/internal/mem"
)

// ProgramCursor names a resumable position inside a compiled program's
// fork tree: the chain of fork-op args leading from the root image to
// this task's stream, plus the op index within it. It is meaningful only
// together with the (spec, seed) identity that compiled the stream —
// the kernel records cursors opaquely and hands them back to a
// ProgramResume callback at fork time.
type ProgramCursor struct {
	Path []int32
	Pos  int
}

// CursorProgram is implemented by programs whose position can be
// captured as a ProgramCursor and rebuilt later (workload.Compiled).
// Programs without it — the reference interpreter, decode-ahead streams,
// trace replays — cannot be mid-run checkpointed.
type CursorProgram interface {
	CompiledProgram
	Cursor() (ProgramCursor, bool)
}

// ProgramResume rebuilds the program for one task from its captured
// cursor. ForkRun calls it for every live workload task; the experiment
// layer closes it over the (spec, seed) that compiled the stream.
type ProgramResume func(cur ProgramCursor) (Program, error)

// taskRunState is one task's mid-run state beyond the boot-time
// taskRecord, aligned positionally with Checkpoint.tasks.
type taskRunState struct {
	parent       mem.TaskID
	state        TaskState
	instructions uint64

	// The task's page table as parallel (vpn, pte) slices in ascending
	// vpn order.
	pageVPNs []uint32
	pagePTEs []uint32

	hasCursor bool
	cursor    ProgramCursor
}

// runState is the mid-run half of a checkpoint, immutable once captured.
type runState struct {
	clock mach.ClockState

	ticks   uint64
	resched bool
	cur     int
	runqIDs []mem.TaskID

	residentTIDs []mem.TaskID
	residentVPNs []uint32

	compInstr   [NumComponents]uint64
	trueECCErrs uint64
	pageOuts    uint64
	forks       uint64
	exits       uint64
	userSpawned int
	userExited  int

	tasks []taskRunState
}

// HasRunState reports whether the checkpoint was captured mid-run
// (CaptureAt) rather than post-boot (Capture). Mid-run checkpoints fork
// only through ForkRun.
func (cp *Checkpoint) HasRunState() bool { return cp.run != nil }

// UserInstructions returns the user-instruction count at capture time
// for a mid-run checkpoint (zero for post-boot checkpoints).
func (cp *Checkpoint) UserInstructions() uint64 {
	if cp.run == nil {
		return 0
	}
	return cp.run.compInstr[CompUser]
}

// CaptureAt snapshots a running kernel at a main-loop boundary into a
// mid-run checkpoint named mark. The kernel must be between scheduling
// decisions — not inside a trap handler, interrupts unmasked — which is
// where Run, RunUntilUser and RunUntilInstr always stop. Every live
// workload task's program must be a CursorProgram positioned on an op
// boundary (compiled replays always are at main-loop boundaries); the
// decode-ahead streams of over-budget workloads are not capturable. The kernel keeps running
// afterwards and shares nothing mutable with the checkpoint.
func CaptureAt(k *Kernel, mark string) (*Checkpoint, error) {
	if k.inClock || k.m.InHandler() || k.m.IntMasked() {
		return nil, fmt.Errorf("kernel: CaptureAt(%q) off a main-loop boundary (inClock %v, handler %v, masked %v)",
			mark, k.inClock, k.m.InHandler(), k.m.IntMasked())
	}
	cp, err := captureState(k, mark)
	if err != nil {
		return nil, err
	}
	rs := &runState{
		clock:       k.m.ClockState(),
		ticks:       k.ticks,
		resched:     k.resched,
		cur:         k.cur,
		compInstr:   k.compInstr,
		trueECCErrs: k.trueECCErrs,
		pageOuts:    k.pageOuts,
		forks:       k.forks,
		exits:       k.exits,
		userSpawned: k.userSpawned,
		userExited:  k.userExited,
	}
	for _, t := range k.runq {
		rs.runqIDs = append(rs.runqIDs, t.ID)
	}
	for i := k.resident.head; i < len(k.resident.entries); i++ {
		e := k.resident.entries[i]
		rs.residentTIDs = append(rs.residentTIDs, e.tid)
		rs.residentVPNs = append(rs.residentVPNs, e.vpn)
	}
	for _, t := range k.tasks {
		ts := taskRunState{
			parent:       t.Parent,
			state:        t.State,
			instructions: t.Instructions,
		}
		t.space.pages(func(vpn uint32, p pte) {
			ts.pageVPNs = append(ts.pageVPNs, vpn)
			ts.pagePTEs = append(ts.pagePTEs, uint32(p))
		})
		if t.prog != nil && t.State != Exited {
			cur, ok := t.prog.(CursorProgram)
			if !ok {
				return nil, fmt.Errorf("kernel: CaptureAt(%q): task %d (%s) runs a %T, which has no resumable cursor",
					mark, t.ID, t.Name, t.prog)
			}
			c, aligned := cur.Cursor()
			if !aligned {
				return nil, fmt.Errorf("kernel: CaptureAt(%q): task %d (%s) is mid-op; capture only at main-loop boundaries",
					mark, t.ID, t.Name)
			}
			ts.hasCursor = true
			ts.cursor = c
		}
		rs.tasks = append(rs.tasks, ts)
	}
	cp.run = rs
	return cp, nil
}

// ForkRun builds a ready-to-run kernel from a mid-run checkpoint,
// resuming exactly where CaptureAt froze it: same scheduler state, same
// clock, same page tables, every program back on its captured op. resume
// rebuilds each live task's program from its cursor. Like Fork, the
// returned kernel shares the image copy-on-write. The run state is
// installed as is: CaptureAt builds it consistent.
//
// The forked machine starts with cold host caches and TLB — the only
// state deliberately absent from a checkpoint — so its overhead stream
// diverges from the capture-side kernel's continuation until the host
// state warms back up. Callers measure through core.Window with a
// warm-up that covers the divergence.
func ForkRun(cp *Checkpoint, cfg Config, resume ProgramResume) (*Kernel, error) {
	rs := cp.run
	if rs == nil {
		return nil, fmt.Errorf("%w: checkpoint %q has no run state (post-boot capture); use Fork",
			ErrCheckpointMismatch, cp.mark)
	}
	k, err := Fork(cp, cfg)
	if err != nil {
		return nil, err
	}
	k.m.SetClockState(rs.clock)
	k.ticks = rs.ticks
	k.resched = rs.resched
	k.cur = rs.cur
	k.compInstr = rs.compInstr
	k.trueECCErrs = rs.trueECCErrs
	k.pageOuts = rs.pageOuts
	k.forks = rs.forks
	k.exits = rs.exits
	k.userSpawned = rs.userSpawned
	k.userExited = rs.userExited

	for i, ts := range rs.tasks {
		t := k.tasks[i]
		t.Parent = ts.parent
		t.State = ts.state
		t.Instructions = ts.instructions
		for j, vpn := range ts.pageVPNs {
			t.space.set(vpn, pte(ts.pagePTEs[j]))
		}
		if ts.hasCursor {
			if resume == nil {
				return nil, fmt.Errorf("kernel: ForkRun of %q needs a resume callback for task %d (%s)",
					cp.mark, t.ID, t.Name)
			}
			prog, err := resume(ts.cursor)
			if err != nil {
				return nil, fmt.Errorf("kernel: resuming task %d (%s) of %q: %w", t.ID, t.Name, cp.mark, err)
			}
			t.prog = prog
		}
	}
	for _, id := range rs.runqIDs {
		k.runq = append(k.runq, k.tasks[id])
	}
	for i, tid := range rs.residentTIDs {
		k.resident.push(tid, rs.residentVPNs[i])
	}
	return k, nil
}

// RegisterResidentPages replays tw_register_page for every resident page
// of every live simulated task, in (task ID, vpn) order. A kernel forked
// mid-run already holds the pages its tasks demand-faulted before the
// capture, so a simulator attached after ForkRun would otherwise never
// see them; this sweep is the attach-time analogue of the registrations
// the VM fault path would have issued. The reference kind mirrors the
// fault path's classification: text below DataBase faults in as IFetch,
// everything above as a data load.
func (k *Kernel) RegisterResidentPages() {
	if k.hooks == nil {
		return
	}
	pageSize := uint32(k.cfg.Machine.PageSize)
	pageBits := uint(0)
	for s := pageSize; s > 1; s >>= 1 {
		pageBits++
	}
	for _, t := range k.tasks {
		if t.ID == mem.KernelTask || t.State == Exited || !t.Simulate {
			continue
		}
		k.registerResidentPagesOf(t, pageSize, pageBits)
	}
}

func (k *Kernel) registerResidentPagesOf(t *Task, pageSize uint32, pageBits uint) {
	t.space.pages(func(vpn uint32, p pte) {
		if !p.resident() {
			return
		}
		va := mem.VAddr(vpn) << pageBits
		kind := mem.IFetch
		if va >= DataBase {
			kind = mem.Load
		}
		k.hooks.PageRegistered(t.ID, mem.PAddr(p.frame())*mem.PAddr(pageSize), va, kind)
	})
}
