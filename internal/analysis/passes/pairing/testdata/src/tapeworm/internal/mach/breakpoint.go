// Package mach is a golden-test stand-in for the real
// tapeworm/internal/mach: it redeclares the instruction-breakpoint arm
// API under the same import path, so the pairing analyzer's
// fully-qualified name matching sees the genuine
// (*tapeworm/internal/mach.Machine).SetBreakpoint/ClearBreakpoint pair
// inside the package that implements it, without the test depending on
// the real package's internals.
package mach

// Machine mirrors the breakpoint-bearing field of the real mach.Machine.
type Machine struct {
	breakpoints map[uint32]int
}

// SetBreakpoint is the pair's acquire. Primitives' bodies are the arm
// mechanism itself and are exempt from the check.
func (m *Machine) SetBreakpoint(pa uint32) { m.breakpoints[pa]++ }

// ClearBreakpoint is the pair's release.
func (m *Machine) ClearBreakpoint(pa uint32) {
	if m.breakpoints[pa]--; m.breakpoints[pa] == 0 {
		delete(m.breakpoints, pa)
	}
}

// armClear pairs the arm with its clear on the straight-line path.
func (m *Machine) armClear(pa uint32) {
	m.SetBreakpoint(pa)
	m.ClearBreakpoint(pa)
}

// armWithoutClear leaves the breakpoint armed past the function boundary.
func (m *Machine) armWithoutClear(pa uint32) {
	m.SetBreakpoint(pa)
} // want `mach breakpoint arm acquired but not released`

// branchImbalance clears on only one arm.
func (m *Machine) branchImbalance(pa uint32, drop bool) {
	m.SetBreakpoint(pa)
	if drop { // want `paths through this branch disagree`
		m.ClearBreakpoint(pa)
	}
}

// loopLeak arms once per iteration without clearing.
func (m *Machine) loopLeak(n int) {
	for i := 0; i < n; i++ { // want `loop iteration acquires`
		m.SetBreakpoint(uint32(4 * i))
	}
}

// deferClear releases through a defer, which covers every exit.
func (m *Machine) deferClear(pa uint32, early bool) int {
	m.SetBreakpoint(pa)
	defer m.ClearBreakpoint(pa)
	if early {
		return 1
	}
	return 0
}

// armForCaller leaves the breakpoint armed for its caller by design (a
// gang member's tw_set_trap holds it until tw_clear_trap or detach).
//
//twvet:transfer
func (m *Machine) armForCaller(pa uint32) {
	m.SetBreakpoint(pa)
}

var _ = (*Machine).armClear
var _ = (*Machine).armWithoutClear
var _ = (*Machine).branchImbalance
var _ = (*Machine).loopLeak
var _ = (*Machine).deferClear
var _ = (*Machine).armForCaller
