// Package pair exercises the pairing analyzer on the repo's breakpoint
// arm primitives.
package pair

import (
	"errors"

	"tapeworm/internal/mach"
	"tapeworm/internal/mem"
)

// Balanced arms and clears on every path.
func Balanced(m *mach.Machine, pa mem.PAddr, hot bool) int {
	m.SetBreakpoint(pa)
	n := 0
	if hot {
		n = 1
	}
	m.ClearBreakpoint(pa)
	return n
}

// DeferBalanced releases via defer, which covers every exit.
func DeferBalanced(m *mach.Machine, pa mem.PAddr, fail bool) error {
	m.SetBreakpoint(pa)
	defer m.ClearBreakpoint(pa)
	if fail {
		return errFail
	}
	return nil
}

// LeakOnEarlyReturn forgets the release on the error path.
func LeakOnEarlyReturn(m *mach.Machine, pa mem.PAddr, fail bool) error {
	m.SetBreakpoint(pa)
	if fail {
		return errFail // want `mach breakpoint arm acquired but not released`
	}
	m.ClearBreakpoint(pa)
	return nil
}

// BranchImbalance clears on only one arm.
func BranchImbalance(m *mach.Machine, pa mem.PAddr, flip bool) {
	m.SetBreakpoint(pa)
	if flip { // want `paths through this branch disagree`
		m.ClearBreakpoint(pa)
	}
}

// LoopLeak arms once per iteration without clearing.
func LoopLeak(m *mach.Machine, pa mem.PAddr, n int) {
	for i := 0; i < n; i++ { // want `loop iteration acquires`
		m.SetBreakpoint(pa + mem.PAddr(4*i))
	}
}

// LoopBalanced is neutral per iteration.
func LoopBalanced(m *mach.Machine, pa mem.PAddr, n int) {
	for i := 0; i < n; i++ {
		m.SetBreakpoint(pa)
		m.ClearBreakpoint(pa)
	}
}

// LoopRelease clears once per iteration without arming: releases are
// checked per iteration as strictly as acquires.
func LoopRelease(m *mach.Machine, pa mem.PAddr, n int) {
	for i := 0; i < n; i++ { // want `loop iteration over-releases`
		m.ClearBreakpoint(pa + mem.PAddr(4*i))
	}
}

// Transfer leaves the breakpoint armed for its caller by design.
//
//twvet:transfer
func Transfer(m *mach.Machine, pa mem.PAddr) {
	m.SetBreakpoint(pa)
}

// ArmWithoutClear leaves a breakpoint armed past the function boundary.
func ArmWithoutClear(m *mach.Machine, pa mem.PAddr) {
	m.SetBreakpoint(pa)
} // want `mach breakpoint arm acquired but not released`

// ArmClear balances the breakpoint pair.
func ArmClear(m *mach.Machine, pa mem.PAddr) {
	m.SetBreakpoint(pa)
	m.ClearBreakpoint(pa)
}

var errFail = errors.New("fail")

// Panics terminates without releasing: panic exits are not balance
// checked (the process is tearing down).
func Panics(m *mach.Machine, pa mem.PAddr) {
	m.SetBreakpoint(pa)
	panic("unreachable")
}
