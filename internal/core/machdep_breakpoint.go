package core

// Machine-dependent layer, breakpoint variant: on processors without ECC
// diagnostic access (the 486-based Gateway PC of Section 4.3, Table 12),
// instruction-cache traps can be planted as clusters of breakpoints — one
// per word of the simulated line ("perhaps set in clusters of more than
// one", Section 3.2). Only instruction fetches trap, so this mechanism
// supports I-cache simulation only.

import (
	"tapeworm/internal/mach"
	"tapeworm/internal/mem"
)

// breakpointMech plants traps as per-word instruction breakpoints.
type breakpointMech struct {
	m *mach.Machine
}

func newBreakpointMech(m *mach.Machine) *breakpointMech { return &breakpointMech{m: m} }

// SetTrap plants one breakpoint per word of the range. The armed state is
// owned by the Tapeworm page tables; ClearTrap releases it.
func (b *breakpointMech) SetTrap(pa mem.PAddr, size int) {
	if size <= 0 {
		size = mem.WordBytes
	}
	for off := 0; off < size; off += mem.WordBytes {
		b.m.SetBreakpoint(pa + mem.PAddr(off))
	}
}

// ClearTrap removes the range's breakpoints armed by SetTrap.
func (b *breakpointMech) ClearTrap(pa mem.PAddr, size int) {
	if size <= 0 {
		size = mem.WordBytes
	}
	for off := 0; off < size; off += mem.WordBytes {
		b.m.ClearBreakpoint(pa + mem.PAddr(off))
	}
}

// SetupCycles prices arming/disarming n words of breakpoints.
func (b *breakpointMech) SetupCycles(words int) uint64 {
	// Breakpoint registers are cheap to write but there is one write per
	// word and bookkeeping to swap the original instruction.
	return 4 + uint64(words)*3
}

// Name identifies the mechanism for reports.
func (b *breakpointMech) Name() string { return "instruction breakpoints" }
