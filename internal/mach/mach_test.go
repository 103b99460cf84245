package mach

import (
	"slices"
	"testing"

	"tapeworm/internal/mem"
)

// stubOS is a minimal mach.OS with an identity page table over low memory
// and recording trap hooks.
type stubOS struct {
	m *Machine // set after New

	eccTraps    []mem.PAddr
	eccTasks    []mem.TaskID
	bpTraps     []mem.PAddr
	clockTicks  int
	pageFaults  int
	faultFail   bool
	onECC       func(pa mem.PAddr)
	translateOK bool
}

func (s *stubOS) Translate(t mem.TaskID, va mem.VAddr, k mem.RefKind) (mem.PAddr, bool) {
	if !s.translateOK {
		return 0, false
	}
	return mem.PAddr(va), true // identity map
}

func (s *stubOS) PageFault(t mem.TaskID, va mem.VAddr, k mem.RefKind) (mem.PAddr, bool) {
	s.pageFaults++
	if s.faultFail {
		return 0, false
	}
	return mem.PAddr(va), true
}

func (s *stubOS) ECCTrap(t mem.TaskID, va mem.VAddr, pa mem.PAddr, k mem.RefKind) {
	s.eccTraps = append(s.eccTraps, pa)
	s.eccTasks = append(s.eccTasks, t)
	if s.onECC != nil {
		s.onECC(pa)
	}
}

func (s *stubOS) BreakpointTrap(t mem.TaskID, va mem.VAddr, pa mem.PAddr) {
	s.bpTraps = append(s.bpTraps, pa)
}

func (s *stubOS) ClockInterrupt() { s.clockTicks++ }

func newTestMachine(t *testing.T) (*Machine, *stubOS) {
	t.Helper()
	os := &stubOS{translateOK: true}
	m, err := New(DECstation5000_200(256), os) // 1 MB
	if err != nil {
		t.Fatal(err)
	}
	os.m = m
	return m, os
}

func TestConfigValidate(t *testing.T) {
	good := DECstation5000_200(64)
	if err := good.Validate(); err != nil {
		t.Fatalf("DECstation config invalid: %v", err)
	}
	bad := good
	bad.Proc = nil
	if bad.Validate() == nil {
		t.Error("nil processor accepted")
	}
	bad = good
	bad.ClockTickCycles = 0
	if bad.Validate() == nil {
		t.Error("zero tick period accepted")
	}
	bad = good
	bad.HostICache.Size = 3000
	if bad.Validate() == nil {
		t.Error("bad host cache accepted")
	}
	if _, err := New(good, nil); err == nil {
		t.Error("nil OS accepted")
	}
}

func TestExecuteCountsInstructions(t *testing.T) {
	m, _ := newTestMachine(t)
	for i := 0; i < 10; i++ {
		m.Execute(1, mem.Ref{VA: mem.VAddr(0x1000 + i*4), Kind: mem.IFetch})
	}
	m.Execute(1, mem.Ref{VA: 0x2000, Kind: mem.Load})
	if m.Instructions() != 10 {
		t.Fatalf("instret = %d, want 10 (loads are not instructions)", m.Instructions())
	}
	if m.Cycles() == 0 {
		t.Fatal("no cycles charged")
	}
}

func TestKernelSegmentBypassesTranslation(t *testing.T) {
	m, os := newTestMachine(t)
	os.translateOK = false // any user translation would fault
	m.Execute(0, mem.Ref{VA: KernelBase + 0x4000, Kind: mem.IFetch})
	if os.pageFaults != 0 {
		t.Fatal("kseg0 access went through translation")
	}
	if !IsKernelVA(KernelBase) || IsKernelVA(KernelBase-1) {
		t.Fatal("IsKernelVA boundary wrong")
	}
}

func TestPageFaultPath(t *testing.T) {
	m, os := newTestMachine(t)
	os.translateOK = false
	m.Execute(1, mem.Ref{VA: 0x3000, Kind: mem.IFetch})
	if os.pageFaults != 1 {
		t.Fatalf("pageFaults = %d", os.pageFaults)
	}
	if m.Counters().PageFaults != 1 {
		t.Fatal("machine fault counter not incremented")
	}
	// A fatal fault abandons the reference without crashing.
	os.faultFail = true
	m.Execute(1, mem.Ref{VA: 0x4000, Kind: mem.Load})
}

func TestECCTrapOnRefill(t *testing.T) {
	m, os := newTestMachine(t)
	ctl := m.Controller()
	ctl.SetTrap(0x5000, 16)
	m.FlushHostLine(0x5000, 16)

	m.Execute(2, mem.Ref{VA: 0x5004, Kind: mem.IFetch})
	if len(os.eccTraps) != 1 {
		t.Fatalf("ECC traps delivered: %d, want 1", len(os.eccTraps))
	}
	if os.eccTraps[0] != 0x5000 {
		t.Fatalf("trap at %#x, want first trapped word 0x5000", os.eccTraps[0])
	}
	if os.eccTasks[0] != 2 {
		t.Fatalf("trap attributed to task %d", os.eccTasks[0])
	}
	if m.Counters().ECCTraps != 1 {
		t.Fatal("machine ECC counter not incremented")
	}
}

func TestNoECCTrapWhileHostLineCached(t *testing.T) {
	m, os := newTestMachine(t)
	// Touch the line first so it is resident in the host cache...
	m.Execute(1, mem.Ref{VA: 0x6000, Kind: mem.IFetch})
	// ...then set a trap WITHOUT flushing: no refill, no check.
	m.Controller().SetTrap(0x6000, 16)
	m.Execute(1, mem.Ref{VA: 0x6000, Kind: mem.IFetch})
	if len(os.eccTraps) != 0 {
		t.Fatal("trap fired without a refill; ECC is only checked on refill")
	}
	// After flushing the host line, the next access refills and traps.
	m.FlushHostLine(0x6000, 16)
	m.Execute(1, mem.Ref{VA: 0x6000, Kind: mem.IFetch})
	if len(os.eccTraps) != 1 {
		t.Fatal("trap did not fire after host line flush")
	}
}

func TestMaskedECCLatchesAndDelivers(t *testing.T) {
	m, os := newTestMachine(t)
	m.Controller().SetTrap(0x7000, 16)
	m.SetIntMasked(true)
	m.Execute(1, mem.Ref{VA: 0x7000, Kind: mem.IFetch})
	if len(os.eccTraps) != 0 {
		t.Fatal("trap delivered while masked")
	}
	m.SetIntMasked(false)
	if len(os.eccTraps) != 1 {
		t.Fatalf("latched trap not delivered on unmask: %d", len(os.eccTraps))
	}
	if m.Counters().ECCLatched != 1 {
		t.Fatal("latched delivery not counted")
	}
}

func TestMaskedLatchSkipsStaleTraps(t *testing.T) {
	m, os := newTestMachine(t)
	m.Controller().SetTrap(0x8000, 16)
	m.SetIntMasked(true)
	m.Execute(1, mem.Ref{VA: 0x8000, Kind: mem.IFetch})
	// The trap is cleared (e.g. tw_remove_page) before unmask.
	m.Controller().ClearTrap(0x8000, 16)
	m.SetIntMasked(false)
	if len(os.eccTraps) != 0 {
		t.Fatal("stale latched trap delivered")
	}
}

func TestMaskedLatchOverflowDrops(t *testing.T) {
	m, _ := newTestMachine(t)
	// Arm far more trapped lines than the latch can hold and touch them
	// all masked.
	for i := 0; i < 600; i++ {
		pa := mem.PAddr(0x10000 + i*16)
		m.Controller().SetTrap(pa, 16)
	}
	m.SetIntMasked(true)
	for i := 0; i < 600; i++ {
		m.Execute(1, mem.Ref{VA: mem.VAddr(0x10000 + i*16), Kind: mem.IFetch})
	}
	m.SetIntMasked(false)
	c := m.Counters()
	if c.MaskedDrops == 0 {
		t.Fatal("latch overflow did not drop")
	}
	if c.ECCLatched == 0 {
		t.Fatal("nothing latched")
	}
}

func TestNoAllocateWriteSilentlyClearsTrap(t *testing.T) {
	m, os := newTestMachine(t)
	m.Controller().SetTrap(0x9000, 4)
	m.FlushHostLine(0x9000, 16)
	// A store miss on the no-allocate DECstation writes around the cache,
	// recomputing ECC and destroying the trap without any handler call.
	m.Execute(1, mem.Ref{VA: 0x9000, Kind: mem.Store})
	if len(os.eccTraps) != 0 {
		t.Fatal("store should not raise a trap on a no-allocate host")
	}
	if m.Counters().SilentClears != 1 {
		t.Fatalf("silent clears = %d, want 1", m.Counters().SilentClears)
	}
	if m.Phys().TrappedWord(0x9000) {
		t.Fatal("trap survived the write-around")
	}
}

func TestAllocateOnWriteHostTrapsOnStore(t *testing.T) {
	os := &stubOS{translateOK: true}
	m, err := New(WWTNode(256), os)
	if err != nil {
		t.Fatal(err)
	}
	m.Controller().SetTrap(0xa000, 4)
	m.FlushHostLine(0xa000, 32)
	m.Execute(1, mem.Ref{VA: 0xa000, Kind: mem.Store})
	if len(os.eccTraps) != 1 {
		t.Fatal("allocate-on-write store miss should refill and trap")
	}
	if m.Counters().SilentClears != 0 {
		t.Fatal("no silent clears expected on WWT node")
	}
}

func TestBreakpoints(t *testing.T) {
	m, os := newTestMachine(t)
	m.SetBreakpoint(0xb000)
	m.Execute(1, mem.Ref{VA: 0xb000, Kind: mem.IFetch})
	m.Execute(1, mem.Ref{VA: 0xb000, Kind: mem.Load}) // data refs don't hit bps
	if len(os.bpTraps) != 1 {
		t.Fatalf("breakpoint traps = %d, want 1", len(os.bpTraps))
	}
	m.ClearBreakpoint(0xb000)
	m.Execute(1, mem.Ref{VA: 0xb000, Kind: mem.IFetch})
	if len(os.bpTraps) != 1 {
		t.Fatal("cleared breakpoint still fired")
	}

	// A breakpoint is armed or not, like the ECC Tapeworm bit: a second
	// arm is a no-op and one clear disarms the word.
	m.SetBreakpoint(0xb004)
	m.SetBreakpoint(0xb006) // same word
	if !m.BreakpointArmed(0xb004) || m.Counters().BreakpointArms != 2 {
		t.Fatalf("re-arm: armed %v, %d arms; want armed, 2 arms",
			m.BreakpointArmed(0xb004), m.Counters().BreakpointArms)
	}
	m.ClearBreakpoint(0xb004)
	if m.BreakpointArmed(0xb004) {
		t.Fatal("one clear left a twice-armed word armed")
	}
	m.Execute(1, mem.Ref{VA: 0xb004, Kind: mem.IFetch})
	if len(os.bpTraps) != 1 {
		t.Fatal("disarmed breakpoint still fired")
	}
}

func TestClockInterrupts(t *testing.T) {
	m, os := newTestMachine(t)
	period := m.Config().ClockTickCycles
	// Charge enough cycles to pass several tick boundaries.
	for i := 0; i < 5; i++ {
		m.Charge(period)
		m.Execute(1, mem.Ref{VA: 0x1000, Kind: mem.IFetch})
	}
	if os.clockTicks < 4 {
		t.Fatalf("clock ticks = %d, want >= 4", os.clockTicks)
	}
}

func TestClockDeferredWhileMasked(t *testing.T) {
	m, os := newTestMachine(t)
	m.SetIntMasked(true)
	m.Charge(m.Config().ClockTickCycles * 2)
	m.Execute(1, mem.Ref{VA: 0x1000, Kind: mem.IFetch})
	if os.clockTicks != 0 {
		t.Fatal("tick delivered while masked")
	}
	m.SetIntMasked(false)
	if os.clockTicks != 1 {
		t.Fatalf("pending tick not delivered on unmask: %d", os.clockTicks)
	}
}

func TestOverheadAccounting(t *testing.T) {
	m, _ := newTestMachine(t)
	m.Execute(1, mem.Ref{VA: 0x1000, Kind: mem.IFetch})
	base := m.Cycles()
	m.ChargeOverhead(250)
	if m.OverheadCycles() != 250 {
		t.Fatalf("overhead = %d", m.OverheadCycles())
	}
	if m.Cycles() != base+250 {
		t.Fatal("overhead did not advance the clock (no time dilation)")
	}
	if m.BaseCycles() != base {
		t.Fatalf("base cycles = %d, want %d", m.BaseCycles(), base)
	}
}

func TestSeconds(t *testing.T) {
	m, _ := newTestMachine(t)
	if got := m.Seconds(25_000_000); got != 1.0 {
		t.Fatalf("25M cycles at 25MHz = %v s", got)
	}
}

func TestTrueErrorCounted(t *testing.T) {
	m, os := newTestMachine(t)
	m.Phys().InjectError(0xc000, 20) // non-Tapeworm bit
	m.FlushHostLine(0xc000, 16)
	m.Execute(1, mem.Ref{VA: 0xc000, Kind: mem.IFetch})
	if m.Counters().TrueErrors != 1 {
		t.Fatal("true error not classified")
	}
	if len(os.eccTraps) != 1 {
		t.Fatal("true error not delivered to the OS")
	}
}

// TestDMAWriteRestoresTrueErrors: a DMA write recomputes ECC for every
// word it stores, so a word holding a true error, with or without a
// Tapeworm trap, comes out clean and the next reference traps nothing.
// The destroyed hook hears of a lost trap and of nothing else.
func TestDMAWriteRestoresTrueErrors(t *testing.T) {
	for _, tc := range []struct {
		name    string
		trapped bool
	}{{"trap and true error", true}, {"true error only", false}} {
		t.Run(tc.name, func(t *testing.T) {
			m, os := newTestMachine(t)
			const pa = 0xd000
			var destroyed []mem.PAddr
			m.Phys().SetTrapDestroyedHook(func(pa mem.PAddr) { destroyed = append(destroyed, pa) })
			if tc.trapped {
				m.Controller().SetTrap(pa, 4)
			}
			m.Phys().InjectError(pa, 20) // non-Tapeworm bit
			m.DMAWrite(pa, 16)
			if st := m.Phys().ECCState(pa); st != 0 {
				t.Fatalf("ECC state %#x after the DMA write, want clean", st)
			}
			var want []mem.PAddr
			if tc.trapped {
				want = []mem.PAddr{pa}
			}
			if !slices.Equal(destroyed, want) {
				t.Fatalf("destroyed hook calls %#x, want %#x", destroyed, want)
			}
			m.Execute(1, mem.Ref{VA: pa, Kind: mem.IFetch})
			if len(os.eccTraps) != 0 || m.Counters().TrueErrors != 0 {
				t.Fatalf("reference after the DMA write raised %d ECC traps, %d true errors",
					len(os.eccTraps), m.Counters().TrueErrors)
			}
		})
	}
}

func TestMaskedTrueErrorDeliveredLate(t *testing.T) {
	// A genuine memory error raised while interrupts are masked latches
	// like any other ECC event and must be delivered — and classified as
	// a true error, not a Tapeworm trap — at unmask.
	m, os := newTestMachine(t)
	m.Phys().InjectError(0xe000, 17) // non-Tapeworm bit position
	m.SetIntMasked(true)
	m.Execute(1, mem.Ref{VA: 0xe000, Kind: mem.IFetch})
	if m.Counters().TrueErrors != 0 {
		t.Fatal("true error delivered while masked")
	}
	m.SetIntMasked(false)
	if m.Counters().TrueErrors != 1 {
		t.Fatalf("true errors = %d after unmask, want 1", m.Counters().TrueErrors)
	}
	if len(os.eccTraps) != 1 {
		t.Fatal("latched true error never reached the OS")
	}
	if m.Counters().ECCTraps != 0 {
		t.Fatal("true error miscounted as a Tapeworm trap")
	}
}

func TestHostTLBMissCharged(t *testing.T) {
	m, _ := newTestMachine(t)
	before := m.Cycles()
	m.Execute(1, mem.Ref{VA: 0xd000, Kind: mem.IFetch})
	afterMiss := m.Cycles() - before
	before = m.Cycles()
	m.Execute(1, mem.Ref{VA: 0xd004, Kind: mem.IFetch}) // same page and line
	afterHit := m.Cycles() - before
	if afterMiss <= afterHit {
		t.Fatalf("TLB+cache miss (%d cycles) not more expensive than hit (%d)",
			afterMiss, afterHit)
	}
}
