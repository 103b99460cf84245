package kernel

// Mid-run checkpoints. PR 7's Capture freezes a quiesced post-boot
// kernel; interval-replay simulation needs to freeze a kernel *mid-run*,
// at an interval boundary, so a representative interval can later be
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
	Parent       mem.TaskID
	State        TaskState
	Instructions uint64

	// The task's page table as parallel (vpn, pte) slices in ascending
	// vpn order, plus the mapped-page count.
	PageVPNs []uint32
	PagePTEs []uint32
	Mapped   int

	HasCursor bool
	Cursor    ProgramCursor
}

// runState is the mid-run half of a checkpoint. All fields are exported
// for gob; the struct is immutable once captured.
type runState struct {
	Clock mach.ClockState

	Ticks   uint64
	Resched bool
	Cur     int
	RunqIDs []mem.TaskID

	ResidentTIDs []mem.TaskID
	ResidentVPNs []uint32

	CompInstr   [NumComponents]uint64
	TrueECCErrs uint64
	PageOuts    uint64
	Forks       uint64
	Exits       uint64
	UserSpawned int
	UserExited  int

	Tasks []taskRunState
}

// check reports whether a decoded run state is consistent with the boot
// half it extends (tasks task records, frame mapping counts refcount):
// one entry per task, page tables whose entries name existing frames with
// exactly the mapping counts the frame tables record, a run queue of live
// tasks with programs to resume, and a resident queue of known tasks.
// Anything else would index past the machine's memory, free a frame
// twice, or schedule a task with no program.
func (rs *runState) check(tasks int, refcount []uint16) error {
	if len(rs.Tasks) != tasks {
		return fmt.Errorf("run state covers %d tasks, checkpoint has %d", len(rs.Tasks), tasks)
	}
	if rs.Cur < 0 {
		return fmt.Errorf("scheduler slot %d", rs.Cur)
	}
	mappings := make([]int, len(refcount))
	for i, ts := range rs.Tasks {
		if len(ts.PageVPNs) != len(ts.PagePTEs) {
			return fmt.Errorf("task %d has %d page numbers but %d page-table entries",
				i, len(ts.PageVPNs), len(ts.PagePTEs))
		}
		for j, raw := range ts.PagePTEs {
			p := pte(raw)
			f := p.frame()
			switch {
			case !p.resident():
				return fmt.Errorf("task %d page %#x: non-resident entry %#x", i, ts.PageVPNs[j], raw)
			case int(f) >= len(refcount):
				return fmt.Errorf("task %d page %#x: frame %d of %d", i, ts.PageVPNs[j], f, len(refcount))
			}
			mappings[f]++
		}
	}
	for f, n := range mappings {
		if n != int(refcount[f]) {
			return fmt.Errorf("frame %d has %d page-table mappings, frame table records %d", f, n, refcount[f])
		}
	}
	for _, id := range rs.RunqIDs {
		if id < 0 || int(id) >= tasks || !rs.Tasks[id].HasCursor || rs.Tasks[id].State == Exited {
			return fmt.Errorf("run queue names task %d, which has no live program", id)
		}
	}
	if len(rs.ResidentTIDs) != len(rs.ResidentVPNs) {
		return fmt.Errorf("%d resident tasks for %d resident pages", len(rs.ResidentTIDs), len(rs.ResidentVPNs))
	}
	for _, id := range rs.ResidentTIDs {
		if id < 0 || int(id) >= tasks {
			return fmt.Errorf("resident queue names unknown task %d", id)
		}
	}
	return nil
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
	return cp.run.CompInstr[CompUser]
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
		Clock:       k.m.ClockState(),
		Ticks:       k.ticks,
		Resched:     k.resched,
		Cur:         k.cur,
		CompInstr:   k.compInstr,
		TrueECCErrs: k.trueECCErrs,
		PageOuts:    k.pageOuts,
		Forks:       k.forks,
		Exits:       k.exits,
		UserSpawned: k.userSpawned,
		UserExited:  k.userExited,
	}
	for _, t := range k.runq {
		rs.RunqIDs = append(rs.RunqIDs, t.ID)
	}
	for i := k.resident.head; i < len(k.resident.entries); i++ {
		e := k.resident.entries[i]
		rs.ResidentTIDs = append(rs.ResidentTIDs, e.tid)
		rs.ResidentVPNs = append(rs.ResidentVPNs, e.vpn)
	}
	for _, t := range k.tasks {
		ts := taskRunState{
			Parent:       t.Parent,
			State:        t.State,
			Instructions: t.Instructions,
			Mapped:       t.space.mapped,
		}
		t.space.pages(func(vpn uint32, p pte) {
			ts.PageVPNs = append(ts.PageVPNs, vpn)
			ts.PagePTEs = append(ts.PagePTEs, uint32(p))
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
			ts.HasCursor = true
			ts.Cursor = c
		}
		rs.Tasks = append(rs.Tasks, ts)
	}
	cp.run = rs
	return cp, nil
}

// ForkRun builds a ready-to-run kernel from a mid-run checkpoint,
// resuming exactly where CaptureAt froze it: same scheduler state, same
// clock, same page tables, every program back on its captured op. resume
// rebuilds each live task's program from its cursor. Like Fork, the
// returned kernel shares the image copy-on-write. The run state is
// installed as is: CaptureAt builds it consistent, and ReadCheckpoint
// vets a decoded one (runState.check).
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
	k.m.SetClockState(rs.Clock)
	k.ticks = rs.Ticks
	k.resched = rs.Resched
	k.cur = rs.Cur
	k.compInstr = rs.CompInstr
	k.trueECCErrs = rs.TrueECCErrs
	k.pageOuts = rs.PageOuts
	k.forks = rs.Forks
	k.exits = rs.Exits
	k.userSpawned = rs.UserSpawned
	k.userExited = rs.UserExited

	for i, ts := range rs.Tasks {
		t := k.tasks[i]
		t.Parent = ts.Parent
		t.State = ts.State
		t.Instructions = ts.Instructions
		for j, vpn := range ts.PageVPNs {
			t.space.set(vpn, pte(ts.PagePTEs[j]))
		}
		t.space.mapped = ts.Mapped
		if ts.HasCursor {
			if resume == nil {
				return nil, fmt.Errorf("kernel: ForkRun of %q needs a resume callback for task %d (%s)",
					cp.mark, t.ID, t.Name)
			}
			prog, err := resume(ts.Cursor)
			if err != nil {
				return nil, fmt.Errorf("kernel: resuming task %d (%s) of %q: %w", t.ID, t.Name, cp.mark, err)
			}
			t.prog = prog
		}
	}
	for _, id := range rs.RunqIDs {
		k.runq = append(k.runq, k.tasks[id])
	}
	for i, tid := range rs.ResidentTIDs {
		k.resident.push(tid, rs.ResidentVPNs[i])
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
