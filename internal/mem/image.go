package mem

// Checkpoint images. A boot (or mid-run) checkpoint freezes the dense
// per-word state of a Phys — trap bitsets, occupancy summaries, sparse
// true-error map — into an immutable Image. Forked machines share the
// image's arrays copy-on-write: NewPhysFromImage aliases them directly, so
// the branch-free hot-path reads (Trapped, TrappedWord) are untouched, and
// the first mutation materializes private copies of exactly the chunks
// the image marks dirty. Which gang members hold a trap is never part of
// an image: that lives in the gang attached to each fork.

// Image is an immutable snapshot of a Phys's dense state. Any number of
// forks (and the capture source itself) may outlive or predecease it;
// the image is never written after CaptureImage returns.
type Image struct {
	frames   int
	pageSize int

	trapBits []uint64
	twBits   []uint64
	chunkPop []uint8
	superPop []uint8
	ecc      map[uint32]uint64

	trapsSet     uint64
	trapsCleared uint64
}

// Frames returns the frame count the image was captured at.
func (img *Image) Frames() int { return img.frames }

// PageSize returns the page size the image was captured at.
func (img *Image) PageSize() int { return img.pageSize }

// CaptureImage snapshots p's dense state into a fresh Image. The copy is
// deep: the image shares nothing with p, so p may keep running while the
// image serves forks.
func CaptureImage(p *Phys) *Image {
	img := &Image{
		frames:       p.frames,
		pageSize:     p.pageSize,
		trapBits:     append([]uint64(nil), p.trapBits...),
		twBits:       append([]uint64(nil), p.twBits...),
		chunkPop:     append([]uint8(nil), p.chunkPop...),
		superPop:     append([]uint8(nil), p.superPop...),
		ecc:          make(map[uint32]uint64, len(p.ecc)),
		trapsSet:     p.trapsSet,
		trapsCleared: p.trapsCleared,
	}
	for w, m := range p.ecc {
		img.ecc[w] = m
	}
	return img
}

// NewPhysFromImage forks a physical memory from an image. The returned
// Phys aliases the image's arrays until its first mutation (set/clear/flip
// trap, error injection or correction), which copies the image's dirty
// chunks into private arrays. Reads are exactly as fast as on a freshly
// booted Phys.
func NewPhysFromImage(img *Image) *Phys {
	return &Phys{
		pageSize:     img.pageSize,
		frames:       img.frames,
		bytes:        img.frames * img.pageSize,
		trapBits:     img.trapBits,
		twBits:       img.twBits,
		chunkPop:     img.chunkPop,
		superPop:     img.superPop,
		ecc:          img.ecc,
		img:          img,
		trapsSet:     img.trapsSet,
		trapsCleared: img.trapsCleared,
	}
}

// Shared reports whether p still aliases a checkpoint image (no mutation
// has materialized private copies yet). For tests and assertions.
func (p *Phys) Shared() bool { return p.img != nil }

// ensureOwned materializes private copies of the dense arrays on
// the first mutation of an image-backed Phys. Every mutating entry point
// calls this before touching trapBits/twBits/ecc, which puts it on the
// trap-set/clear hot path of every forked run: the guard must stay small
// enough to inline (a function containing the copy loops is not
// inlinable, which used to cost forked sweeps ~3% in call overhead —
// the BENCH sweep_speedup < 1.0 regression). The cold copy lives in
// materializeImage.
func (p *Phys) ensureOwned() {
	if p.img == nil {
		return
	}
	p.materializeImage()
}

// materializeImage copies the dense arrays out of the backing image into
// freshly allocated private arrays. Only chunks the image's occupancy
// summary marks dirty are copied — a clean boot image costs the zeroed
// allocation and nothing else.
func (p *Phys) materializeImage() {
	img := p.img
	p.img = nil
	p.allocDense()
	for s, sp := range img.superPop {
		if sp == 0 {
			continue
		}
		p.superPop[s] = sp
		base := s * superSize
		end := base + superSize
		if end > len(img.chunkPop) {
			end = len(img.chunkPop)
		}
		for c := base; c < end; c++ {
			if img.chunkPop[c] == 0 {
				continue
			}
			p.trapBits[c] = img.trapBits[c]
			p.twBits[c] = img.twBits[c]
			p.chunkPop[c] = img.chunkPop[c]
		}
	}
	for w, m := range img.ecc {
		p.ecc[w] = m
	}
}
