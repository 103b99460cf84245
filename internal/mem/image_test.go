package mem

import (
	"reflect"
	"testing"
)

// imageSource builds a Phys with a representative mix of state — Tapeworm
// traps in several chunks, a true error, and a word carrying both — then
// captures it. The source stays alive so tests can compare against it.
func imageSource() (*Phys, *Controller, *Image) {
	p := NewPhys(64, 4096) // 256 KB
	c := NewController(p)
	c.SetTrap(0x1000, 64) // a run of trapped words
	c.SetTrap(0x20004, 4) // lone word in a distant chunk
	c.FlipTapewormBit(0x3000, 16)
	p.InjectError(0x4000, 5) // true single-bit error
	c.SetTrap(0x4100, 4)     // trap in the same chunk as the true error
	return p, c, CaptureImage(p)
}

// dense deep-compares the complete dense state of two Phys (or a Phys and
// what an image would restore) via CaptureImage, which copies exactly the
// checkpointed state.
func dense(p *Phys) *Image { return CaptureImage(p) }

func TestForkSharesUntilFirstWrite(t *testing.T) {
	src, _, img := imageSource()
	f := NewPhysFromImage(img)
	if !f.Shared() {
		t.Fatal("fresh fork does not alias the image")
	}

	// Reads agree with the source and never materialize.
	for _, pa := range []PAddr{0x1000, 0x1020, 0x20004, 0x3000, 0x4000, 0x4100, 0x8000} {
		if got, want := f.TrappedWord(pa), src.TrappedWord(pa); got != want {
			t.Errorf("TrappedWord(%#x) = %v on fork, %v on source", pa, got, want)
		}
		if got, want := f.Classify(pa), src.Classify(pa); got != want {
			t.Errorf("Classify(%#x) = %v on fork, %v on source", pa, got, want)
		}
	}
	if f.TrapCount() != src.TrapCount() {
		t.Errorf("fork TrapCount %d != source %d", f.TrapCount(), src.TrapCount())
	}
	if err := f.CheckSummaries(); err != nil {
		t.Errorf("shared fork summaries: %v", err)
	}
	if !f.Shared() {
		t.Fatal("reads materialized the fork")
	}

	// First write materializes; the image (and other forks) are untouched.
	before := dense(f)
	NewController(f).SetTrap(0x8000, 4)
	if f.Shared() {
		t.Fatal("write did not materialize the fork")
	}
	f2 := NewPhysFromImage(img)
	if !reflect.DeepEqual(dense(f2), before) {
		t.Fatal("mutating one fork leaked into the shared image")
	}
}

// TestForkMutationsMatchFresh drives every mutating entry point against a
// fork and against a never-checkpointed Phys built by the same op
// sequence: copy-on-write must be invisible in the resulting state.
func TestForkMutationsMatchFresh(t *testing.T) {
	setup := func(c *Controller, p *Phys) {
		c.SetTrap(0x1000, 64)
		c.SetTrap(0x20004, 4)
		c.FlipTapewormBit(0x3000, 16)
		p.InjectError(0x4000, 5)
		c.SetTrap(0x4100, 4)
	}
	muts := []struct {
		name string
		op   func(c *Controller, p *Phys)
	}{
		{"set new word", func(c *Controller, p *Phys) { c.SetTrap(0x9000, 4) }},
		{"set already-trapped (idempotent)", func(c *Controller, p *Phys) { c.SetTrap(0x1000, 64) }},
		{"clear imaged trap", func(c *Controller, p *Phys) { c.ClearTrap(0x1000, 32) }},
		{"clear clean range (no-op)", func(c *Controller, p *Phys) { c.ClearTrap(0x10000, 128) }},
		{"flip imaged trap off", func(c *Controller, p *Phys) { c.FlipTapewormBit(0x3000, 16) }},
		{"inject beside imaged trap", func(c *Controller, p *Phys) { p.InjectError(0x1004, 7) }},
		{"correct the true error", func(c *Controller, p *Phys) { p.CorrectWord(0x4000) }},
		{"clear around the true error", func(c *Controller, p *Phys) { c.ClearTrap(0x4000, 0x200) }},
	}
	for _, m := range muts {
		t.Run(m.name, func(t *testing.T) {
			fresh := NewPhys(64, 4096)
			fc := NewController(fresh)
			setup(fc, fresh)
			m.op(fc, fresh)

			_, _, img := imageSource()
			f := NewPhysFromImage(img)
			m.op(NewController(f), f)

			if err := f.CheckSummaries(); err != nil {
				t.Fatalf("fork summaries after %q: %v", m.name, err)
			}
			if !reflect.DeepEqual(dense(f), dense(fresh)) {
				t.Fatalf("fork state after %q differs from fresh-built state", m.name)
			}
			fset, fcleared := f.Stats()
			wset, wcleared := fresh.Stats()
			if fset != wset || fcleared != wcleared {
				t.Fatalf("fork stats (%d,%d) != fresh stats (%d,%d)", fset, fcleared, wset, wcleared)
			}
		})
	}
}

// TestForkWriteMidFaultService models the trap-service interleaving on a
// shared frame: the fault handler clears the trap (the fork's first
// write, forcing materialization mid-service), simulates, and re-arms,
// while a sibling fork still reads the original trap through the image.
func TestForkWriteMidFaultService(t *testing.T) {
	_, _, img := imageSource()
	f1 := NewPhysFromImage(img)
	f2 := NewPhysFromImage(img)
	pa := PAddr(0x1020) // trapped in the image

	if !f1.TrappedWord(pa) {
		t.Fatal("trap missing before service")
	}
	c1 := NewController(f1)
	c1.ClearTrap(pa, WordBytes) // service begins: clear to let the access run
	if f1.Shared() {
		t.Fatal("clear of an armed word did not materialize")
	}
	if f1.TrappedWord(pa) {
		t.Fatal("trap survived its clear")
	}
	if !f2.TrappedWord(pa) || !f2.Shared() {
		t.Fatal("sibling fork lost its trap (or materialized) when the other cleared")
	}
	c1.SetTrap(pa, WordBytes) // service ends: re-arm
	if !f1.TrappedWord(pa) {
		t.Fatal("re-arm failed after copy-on-write")
	}
	if err := f1.CheckSummaries(); err != nil {
		t.Errorf("summaries after mid-service write: %v", err)
	}
	if err := f2.CheckSummaries(); err != nil {
		t.Errorf("sibling summaries: %v", err)
	}
}

// TestForkTrapRefsRebuiltPerFork: which gang members hold a trap is never
// part of an image, so each fork's gang arms and disarms its own words —
// adopting the imaged traps — and nothing it does reaches its siblings.
func TestForkTrapRefsRebuiltPerFork(t *testing.T) {
	_, _, img := imageSource()
	f1 := NewPhysFromImage(img)
	f2 := NewPhysFromImage(img)
	c1 := NewController(f1)
	const ch = 0x1000 / WordBytes / chunkWords

	// Adopting the imaged run of traps writes nothing, so it copies nothing.
	if refused := c1.ArmWords(ch, 0xffff); refused != 0 {
		t.Fatalf("adopting the imaged traps refused %#x", refused)
	}
	if !f1.Shared() {
		t.Fatal("adopting imaged traps materialized the fork")
	}
	// Arming a fresh word flips a check bit: the arming fork materializes,
	// its sibling still aliases the image.
	c1.ArmWords(ch, 1<<20)
	if f1.Shared() {
		t.Fatal("ArmWords did not materialize the arming fork")
	}
	if !f2.Shared() || f2.TrappedWord(0x1000+20*WordBytes) {
		t.Fatal("f1's arm reached its sibling")
	}
	c1.DisarmWords(ch, 0xffff) // the last holder releases the imaged traps
	if f1.TrappedWord(0x1000) {
		t.Fatal("trap survived DisarmWords")
	}
	if !f2.TrappedWord(0x1000) {
		t.Fatal("f1's disarm destroyed f2's trap")
	}
	if err := f1.CheckSummaries(); err != nil {
		t.Fatal(err)
	}
}

// TestForkReleaseUnmaterialized: a fork dropped without ever writing
// never copies the image and leaves the image fully serviceable.
func TestForkReleaseUnmaterialized(t *testing.T) {
	_, _, img := imageSource()
	want := dense(NewPhysFromImage(img))

	fr := NewPhysFromImage(img)
	fr.SetTrapDestroyedHook(func(PAddr) {})
	if !fr.Shared() {
		t.Fatal("installing the destroyed hook materialized the fork")
	}
	if err := fr.CheckSummaries(); err != nil {
		t.Fatal(err)
	}

	g := NewPhysFromImage(img)
	if !reflect.DeepEqual(dense(g), want) {
		t.Fatal("image corrupted by an unmaterialized fork")
	}
	if err := g.CheckSummaries(); err != nil {
		t.Fatal(err)
	}
}
