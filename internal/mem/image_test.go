package mem

import (
	"bytes"
	"encoding/gob"
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

// TestForkTrapRefsRebuiltPerFork: refcounts are never part of an image —
// each fork arms its own, and counts on one fork are invisible to its
// siblings.
func TestForkTrapRefsRebuiltPerFork(t *testing.T) {
	_, _, img := imageSource()
	f1 := NewPhysFromImage(img)
	f2 := NewPhysFromImage(img)
	f1.EnableTrapRefs()
	f2.EnableTrapRefs()
	pa := PAddr(0x1000)

	c1 := NewController(f1)
	if !c1.AddTrapRef(pa) {
		t.Fatal("adopting the imaged trap failed")
	}
	if !c1.AddTrapRef(pa) {
		t.Fatal("second reference failed")
	}
	if got := f1.TrapRefCount(pa); got != 2 {
		t.Fatalf("f1 refcount %d, want 2", got)
	}
	if got := f2.TrapRefCount(pa); got != 0 {
		t.Fatalf("f2 refcount %d leaked from f1, want 0", got)
	}
	// Arming references counts as a write (it may flip check bits), so the
	// arming fork materialized; its sibling must still alias the image.
	if f1.Shared() {
		t.Fatal("AddTrapRef did not materialize the arming fork")
	}
	if !f2.Shared() {
		t.Fatal("sibling fork materialized without writing")
	}
	c1.ReleaseTrapRef(pa)
	c1.ReleaseTrapRef(pa) // last release clears the physical trap
	if f1.TrappedWord(pa) {
		t.Fatal("trap survived the last reference release")
	}
	if !f2.TrappedWord(pa) {
		t.Fatal("f1's release destroyed f2's trap")
	}
}

// TestForkReleaseUnmaterialized: a fork dropped without ever writing
// never copies the image, even with gang trap refcounts enabled (those
// arrays are always private), and leaves the image fully serviceable.
func TestForkReleaseUnmaterialized(t *testing.T) {
	_, _, img := imageSource()
	want := dense(NewPhysFromImage(img))

	fr := NewPhysFromImage(img)
	fr.EnableTrapRefs()
	if !fr.Shared() {
		t.Fatal("enabling trap refcounts materialized the fork")
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

func TestImageGobRoundtrip(t *testing.T) {
	_, _, img := imageSource()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(img); err != nil {
		t.Fatal(err)
	}
	var back Image
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, img) {
		t.Fatal("image did not survive gob roundtrip")
	}
	f := NewPhysFromImage(&back)
	if err := f.CheckSummaries(); err != nil {
		t.Fatal(err)
	}
	if f.TrapCount() != img.TrapCount() {
		t.Fatalf("decoded fork TrapCount %d != image %d", f.TrapCount(), img.TrapCount())
	}
}

func TestImageDecodeRejectsInconsistentLengths(t *testing.T) {
	_, _, img := imageSource()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(imageWire{
		Frames: img.frames, PageSize: img.pageSize,
		TrapBits: img.trapBits[:1], TwBits: img.twBits,
		ChunkPop: img.chunkPop, SuperPop: img.superPop,
	}); err != nil {
		t.Fatal(err)
	}
	var back Image
	if err := back.GobDecode(buf.Bytes()); err == nil {
		t.Fatal("truncated image accepted")
	}
}
