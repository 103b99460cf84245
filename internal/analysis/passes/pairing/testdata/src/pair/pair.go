// Package pair exercises the pairing analyzer on the repo's trap
// refcount and breakpoint primitives.
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
func DeferBalanced(c *mem.Controller, pa mem.PAddr, fail bool) error {
	c.AddTrapRef(pa)
	defer c.ReleaseTrapRef(pa)
	if fail {
		return errFail
	}
	return nil
}

// LeakOnEarlyReturn forgets the release on the error path.
func LeakOnEarlyReturn(c *mem.Controller, pa mem.PAddr, fail bool) error {
	c.AddTrapRef(pa)
	if fail {
		return errFail // want `mem trap refcount acquired but not released`
	}
	c.ReleaseTrapRef(pa)
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
func LoopBalanced(c *mem.Controller, pa mem.PAddr, n int) {
	for i := 0; i < n; i++ {
		c.AddTrapRef(pa)
		c.ReleaseTrapRef(pa)
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

// RefBalanced pairs the trap refcount calls on the straight-line path.
func RefBalanced(c *mem.Controller, pa mem.PAddr) {
	c.AddTrapRef(pa)
	c.ReleaseTrapRef(pa)
}

var errFail = errors.New("fail")

// Panics terminates without releasing: panic exits are not balance
// checked (the process is tearing down).
func Panics(m *mach.Machine, pa mem.PAddr) {
	m.SetBreakpoint(pa)
	panic("unreachable")
}
