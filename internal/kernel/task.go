// Package kernel implements the operating system of the simulated host
// machine: tasks with fork/exit and Tapeworm attribute inheritance, a
// round-robin scheduler driven by clock interrupts, a virtual memory
// system with a randomized physical frame allocator and page-registration
// hooks, kernel services, and user-level server tasks (the Mach 3.0 BSD
// single-server and the X display server of the paper's Table 4).
//
// The kernel is where Tapeworm resides: machine traps vector here first,
// and the memory-simulation hooks (MemSimHooks) are how Tapeworm's
// kernel-resident part attaches, mirroring the paper's modified Mach
// kernel entry code and VM-system calls to tw_register_page and
// tw_remove_page.
package kernel

import (
	"fmt"

	"tapeworm/internal/mem"
)

// EventKind discriminates the steps a task program can take.
type EventKind uint8

const (
	// EvRef executes one memory reference.
	EvRef EventKind = iota
	// EvSyscall traps into a kernel service (possibly server-backed).
	EvSyscall
	// EvFork creates a child task running Event.Child.
	EvFork
	// EvExit terminates the task.
	EvExit
)

// Event is one step of a task's execution, produced by its Program.
type Event struct {
	Kind    EventKind
	Ref     mem.Ref   // EvRef
	Service ServiceID // EvSyscall
	Child   Program   // EvFork
	// ShareText controls whether the forked child shares the parent's
	// text pages (classic fork) or starts with an empty address space
	// (fork immediately followed by exec of a different program).
	ShareText bool
}

// Program generates a task's execution, one event at a time. Programs are
// required to be deterministic functions of their own construction
// parameters: a task's stream must not depend on scheduling, so that
// single-task virtually-indexed simulations are exactly reproducible
// (DESIGN.md, "per-task deterministic streams").
type Program interface {
	Next() Event
}

// BatchProgram is an optional extension of Program for batched execution.
// NextRun returns either a sequential instruction-fetch run — base and n
// with fetches at base, base+4, ..., base+4(n-1), n in [1, max] — or,
// when n is 0, the next non-run event exactly as Next would produce it.
// Implementations must consume randomness such that the event stream is
// identical whether the program is driven through Next or NextRun:
// batching is a transport optimization, never a different program.
type BatchProgram interface {
	Program
	NextRun(max int) (base mem.VAddr, n int, ev Event)
}

// CompiledOpKind discriminates the ops of a pre-compiled program stream.
type CompiledOpKind uint8

const (
	// OpRun is a sequential instruction-fetch run: VA, VA+4, ...,
	// VA+4(N-1), with N in [1, CompiledRunCap].
	OpRun CompiledOpKind = iota
	// OpData is one data reference at VA with kind Ref.
	OpData
	// OpSyscall traps into service Arg.
	OpSyscall
	// OpFork creates a child task replaying child image Arg; N != 0
	// means the child shares the parent's text (Event.ShareText).
	OpFork
	// OpExit terminates the task. Always the final op of a stream.
	OpExit
)

// CompiledOp is one pre-planned step of a compiled program: a fused walker
// run, a pre-resolved data reference, or an event with its randomness
// (service choice, fork target) already drawn. 12 bytes, so a multi-million
// instruction workload compiles to a few tens of megabytes.
type CompiledOp struct {
	VA   mem.VAddr      // OpRun: first fetch; OpData: address
	N    uint16         // OpRun: run length; OpFork: ShareText flag
	Kind CompiledOpKind // discriminator
	Ref  mem.RefKind    // OpData: Load or Store
	Arg  int32          // OpSyscall: ServiceID; OpFork: child image index
}

// CompiledRunCap is the run length compiled streams are segmented at. It
// equals the Run loop's per-scheduling-decision batch bound, so a compiled
// stream's run boundaries coincide exactly with where the interpreter's
// NextRun(userRunCap) calls would fall.
const CompiledRunCap = userRunCap

// CompiledProgram is an optional extension of BatchProgram for programs
// whose stream is lowered into CompiledOp arrays: a whole compiled image,
// or a decode-ahead stream's chunks, one window at a time. The Run loop
// replays the ops directly — no per-instruction dispatch, no draws —
// while Next/NextRun remain available (and must stay byte-identical to the
// ops) for traced and instruction-limited execution.
type CompiledProgram interface {
	BatchProgram
	// Ops returns the immutable op window that holds the replay cursor:
	// the whole stream for a compiled image, the current chunk for a
	// decode-ahead stream. Call it after OpPos.
	Ops() []CompiledOp
	// OpPos returns the replay cursor as an op index into Ops. ok is
	// false while the cursor sits inside a partially consumed run op
	// (possible only when the program was also driven through Next), in
	// which case the caller must fall back to Next/NextRun until
	// realigned. When the cursor has reached the end of its window, OpPos
	// first moves it to the start of the next window.
	OpPos() (pos int, ok bool)
	// SeekOp moves the replay cursor to op index pos of the window Ops
	// returned (run-aligned). A decode-ahead stream only moves forward.
	SeekOp(pos int)
}

// TaskState tracks a task through its lifetime.
type TaskState uint8

const (
	// Runnable tasks are eligible for scheduling.
	Runnable TaskState = iota
	// Exited tasks have terminated and been torn down.
	Exited
)

// Task is an OS task. The Simulate and Inherit fields are the Tapeworm
// attributes of Table 1, stored in an extended task structure exactly as
// the paper describes; they are ordinary kernel state that Tapeworm reads
// and writes through tw_attributes.
type Task struct {
	ID     mem.TaskID
	Parent mem.TaskID
	Name   string
	State  TaskState

	// Simulate registers the task's pages with Tapeworm; Inherit gives
	// the initial Simulate value for children created by fork:
	//
	//	child.simulate <- parent.inherit
	//	child.inherit  <- parent.inherit
	Simulate bool
	Inherit  bool

	// Server marks X/BSD-style server tasks that exist before the
	// workload starts and never exit.
	Server bool

	prog  Program
	space *AddrSpace

	Instructions uint64 // user-mode instructions executed by this task
}

// Space returns the task's address space.
func (t *Task) Space() *AddrSpace { return t.space }

// Component classifies where references execute, for per-component miss
// accounting (Table 6): user tasks, server tasks, or the kernel.
type Component uint8

const (
	// CompUser is any task in the workload's fork tree.
	CompUser Component = iota
	// CompServer is the X display server or the BSD UNIX server.
	CompServer
	// CompKernel is the OS kernel itself.
	CompKernel

	// NumComponents is the count of component classes.
	NumComponents
)

// String names the component.
func (c Component) String() string {
	switch c {
	case CompUser:
		return "user"
	case CompServer:
		return "server"
	case CompKernel:
		return "kernel"
	}
	return fmt.Sprintf("Component(%d)", uint8(c))
}
