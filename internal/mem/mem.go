// Package mem models the physical memory system of the simulated host
// machine: 32-bit physical/virtual addresses, per-word ECC check bits, the
// memory-controller ASIC diagnostic interface that Tapeworm abuses to set
// and clear memory traps, and the dense trap bitset consulted on the hot
// path of every simulated reference.
//
// The paper's DECstation 5000/200 implementation sets a trap by flipping a
// specific ECC check bit among the 7 check bits that protect each 32-bit
// word (Section 3.2, footnote 1). Subsequent use of the word raises a
// memory-error trap into the kernel. This package reproduces that machinery
// exactly: check-bit state per word, single- versus double-bit syndrome
// classification, and the distinction between Tapeworm traps and true
// memory errors.
package mem

import (
	"fmt"
	"math/bits"
)

// PAddr is a 32-bit physical address.
type PAddr uint32

// VAddr is a 32-bit virtual address.
type VAddr uint32

// TaskID identifies a task. ID 0 denotes the OS kernel itself, matching
// the tw_attributes convention of Table 1.
type TaskID int32

// KernelTask is the TaskID of the OS kernel.
const KernelTask TaskID = 0

// RefKind distinguishes instruction fetches from data loads and stores.
type RefKind uint8

const (
	// IFetch is an instruction fetch.
	IFetch RefKind = iota
	// Load is a data read.
	Load
	// Store is a data write.
	Store
)

// String names the reference kind.
func (k RefKind) String() string {
	switch k {
	case IFetch:
		return "ifetch"
	case Load:
		return "load"
	case Store:
		return "store"
	}
	return fmt.Sprintf("RefKind(%d)", uint8(k))
}

// Ref is one memory reference issued by a task: a virtual address and an
// access kind. Physical addresses are attached by the MMU at access time.
type Ref struct {
	VA   VAddr
	Kind RefKind
}

// WordBytes is the machine word size in bytes (32-bit machine).
const WordBytes = 4

// twCheckBit is the specific check bit (of the 7 per word) that Tapeworm
// flips to set a trap. A single-bit error in any of the other positions, or
// any double-bit error, is classified as a true memory error.
const twCheckBit = 0

// Bitset geometry: 64 words per chunk, 64 chunks per super-chunk. A chunk
// is one uint64 of the dense bitsets; a super-chunk covers 4096 words
// (16 KB of physical memory, four pages).
const (
	chunkWords = 64
	superSize  = 64
)

// Phys is the physical memory of the machine: a frame count, a page size,
// the dense trap bitset, and the sparse ECC corruption state.
//
// The corruption state of a word splits by cause. The dedicated Tapeworm
// check bit — flipped and restored millions of times per run — lives in
// the dense twBits bitset, so tw_set_trap and tw_clear_trap over a range
// are whole-chunk bitset operations. True memory errors (any other
// flipped position) are vanishingly rare and stay in the sparse ecc map;
// only when a region holds true errors do the trap operations fall back
// to word-at-a-time updates. A word's full corruption mask is the OR of
// the two.
//
// On top of the any-corruption bitset sits a two-level occupancy summary
// (per-chunk population counts, per-super-chunk nonzero-chunk counts) so
// that clears, counts and invariant checks skip clean regions without
// scanning them.
type Phys struct {
	pageSize int
	frames   int
	bytes    int

	trapBits []uint64 // one bit per machine word; 1 = any ECC inconsistency
	twBits   []uint64 // one bit per machine word; 1 = Tapeworm check bit flipped

	// chunkPop[c] is the population count of trapBits[c]; superPop[s] is
	// the number of nonzero chunks among the s-th group of 64. Together
	// they let range clears, TrapCount and image materialization skip
	// clean regions.
	chunkPop []uint8
	superPop []uint8

	// ecc maps word index -> XOR mask of corrupted check/data bit
	// positions other than the Tapeworm check bit (bits 1..6 are the
	// remaining check bits, 7..38 data bits). Present only for words
	// carrying true-error corruption; Tapeworm's own bit is in twBits.
	ecc map[uint32]uint64

	// destroyed, if set, is called with the word-aligned address of every
	// Tapeworm trap that something other than DisarmWords removes (DMA
	// writes, silent write-around clears, true-error correction). An ECC
	// gang uses it to empty the word's member mask: no member holds a trap
	// the hardware destroyed.
	destroyed func(pa PAddr)

	// img, when non-nil, is the immutable checkpoint image whose arrays
	// this Phys still aliases copy-on-write; the first mutation calls
	// ensureOwned to materialize private copies. See image.go.
	img *Image

	trapsSet     uint64 // statistics: total tw_set_trap word-sets
	trapsCleared uint64
}

// CheckPhysSize validates a physical memory geometry without building
// it: frames must be positive, pageSize a power of two and a multiple
// of the word size, and the total size must fit the machine's 32-bit
// physical address space. Config validators call this so bad geometry
// becomes an error at the boundary instead of a panic mid-run.
func CheckPhysSize(frames, pageSize int) error {
	if frames <= 0 {
		return fmt.Errorf("mem: frame count must be positive, got %d", frames)
	}
	if pageSize <= 0 || pageSize&(pageSize-1) != 0 || pageSize%WordBytes != 0 {
		return fmt.Errorf("mem: invalid page size %d", pageSize)
	}
	const maxBytes = 1 << 32
	if uint64(frames)*uint64(pageSize) > maxBytes {
		return fmt.Errorf("mem: %d frames of %d bytes exceed the 32-bit physical address space", frames, pageSize)
	}
	return nil
}

// NewPhys creates a physical memory of frames pages of pageSize bytes each.
// pageSize must be a power of two and a multiple of the word size; callers
// that need an error instead of a panic should run CheckPhysSize first.
func NewPhys(frames, pageSize int) *Phys {
	if err := CheckPhysSize(frames, pageSize); err != nil {
		panic(err.Error())
	}
	p := &Phys{
		pageSize: pageSize,
		frames:   frames,
		bytes:    frames * pageSize,
	}
	p.allocDense()
	return p
}

// allocDense gives p zeroed trap bitsets, occupancy summaries and
// true-error map sized to its geometry.
func (p *Phys) allocDense() {
	chunks := (p.bytes/WordBytes + chunkWords - 1) / chunkWords
	p.trapBits = make([]uint64, chunks)
	p.twBits = make([]uint64, chunks)
	p.chunkPop = make([]uint8, chunks)
	p.superPop = make([]uint8, (chunks+superSize-1)/superSize)
	p.ecc = make(map[uint32]uint64)
}

// PoolStats always reports zero gets and reuses: physical memory no
// longer pools its backing arrays. The name is kept only because the
// benchmark runner in perfbench/ reads it for its mem.pool_* ledger rows.
func PoolStats() (gets, reuses uint64) { return 0, 0 }

// PageSize returns the machine page size in bytes.
func (p *Phys) PageSize() int { return p.pageSize }

// Frames returns the number of physical page frames.
func (p *Phys) Frames() int { return p.frames }

// Bytes returns the total physical memory size in bytes.
func (p *Phys) Bytes() int { return p.bytes }

// Contains reports whether pa addresses a byte inside physical memory.
func (p *Phys) Contains(pa PAddr) bool { return int(pa) < p.bytes }

func (p *Phys) wordIndex(pa PAddr) uint32 {
	if !p.Contains(pa) {
		panic(fmt.Sprintf("mem: physical address %#x out of range (%d bytes)", pa, p.bytes))
	}
	return uint32(pa) / WordBytes
}

// wordRange bounds-checks [pa, pa+size) and returns its inclusive word
// index range. The ubiquitous single-word case (size <= WordBytes, not
// straddling a word boundary) skips the second bounds check.
func (p *Phys) wordRange(pa PAddr, size int) (first, last uint32) {
	first = p.wordIndex(pa)
	if int(pa&(WordBytes-1))+size <= WordBytes {
		return first, first
	}
	return first, p.wordIndex(pa + PAddr(size) - 1)
}

// --- Trap bitset (the hot path) ---

// Trapped reports whether any word in [pa, pa+size) has a trap set.
// Size zero is treated as one word.
//
// This is probed on the hot path of every simulated reference (host
// cache refills check it per line), so the common shapes take fast
// paths: a range inside one machine word is a single bit test, and a
// range inside one 64-word bitset chunk — every 16-byte host line — is
// a single masked load. Only ranges straddling a chunk boundary (page
// registration, DMA buffers) walk multiple bitset words, and those are
// scanned a uint64 at a time rather than bit by bit.
func (p *Phys) Trapped(pa PAddr, size int) bool {
	if size <= 0 {
		size = WordBytes
	}
	first := p.wordIndex(pa)
	if size <= WordBytes && int(pa&(WordBytes-1))+size <= WordBytes {
		// Aligned single-word fast path: the whole range lives in the
		// word containing pa.
		return p.trapBits[first>>6]&(1<<(first&63)) != 0
	}
	last := p.wordIndex(pa + PAddr(size) - 1)
	fc, lc := first>>6, last>>6
	if fc == lc {
		// Single-chunk fast path. The shift-width trick keeps the mask
		// correct when the range covers all 64 words of the chunk
		// (1<<64 == 0 for non-constant shifts, so the mask is ^0).
		n := last - first + 1
		mask := (uint64(1)<<n - 1) << (first & 63)
		return p.trapBits[fc]&mask != 0
	}
	if p.trapBits[fc]&(^uint64(0)<<(first&63)) != 0 {
		return true
	}
	for c := fc + 1; c < lc; c++ {
		if p.trapBits[c] != 0 {
			return true
		}
	}
	tail := uint64(1)<<((last&63)+1) - 1
	return p.trapBits[lc]&tail != 0
}

// TrappedWord reports whether the single word containing pa has a trap set.
// This is the fastest-path query used by the machine's refill check.
func (p *Phys) TrappedWord(pa PAddr) bool {
	w := p.wordIndex(pa)
	return p.trapBits[w>>6]&(1<<(w&63)) != 0
}

// twSet reports whether word w carries the Tapeworm check-bit flip.
func (p *Phys) twSet(w uint32) bool {
	return p.twBits[w>>6]&(1<<(w&63)) != 0
}

// mask returns the full corruption mask of word w: the sparse true-error
// bits plus the dense Tapeworm bit.
func (p *Phys) mask(w uint32) uint64 {
	m := p.ecc[w]
	if p.twSet(w) {
		m |= 1 << twCheckBit
	}
	return m
}

// writeChunk replaces one chunk of the any-corruption bitset and keeps the
// two-level occupancy summary consistent. Every trapBits mutation funnels
// through here: the summary invariant (chunkPop is the chunk's population
// count, superPop its group's nonzero-chunk count) is what lets clears,
// counts and image materialization skip clean regions.
func (p *Phys) writeChunk(c uint32, v uint64) {
	if p.trapBits[c] == v {
		return
	}
	p.trapBits[c] = v
	old := p.chunkPop[c]
	pop := uint8(bits.OnesCount64(v))
	p.chunkPop[c] = pop
	switch {
	case old == 0 && pop != 0:
		p.superPop[c/superSize]++
	case old != 0 && pop == 0:
		p.superPop[c/superSize]--
	}
}

// forChunks calls fn for every 64-word chunk intersecting the inclusive
// word range [first, last], passing the chunk index and the mask of covered
// words within it. The shift trick in the tail mask handles last&63 == 63
// (1<<64 == 0 for variable shifts, so the mask underflows to all-ones).
func forChunks(first, last uint32, fn func(c uint32, m uint64)) {
	fc, lc := first>>6, last>>6
	for c := fc; c <= lc; c++ {
		m := ^uint64(0)
		if c == fc {
			m &= ^uint64(0) << (first & 63)
		}
		if c == lc {
			m &= uint64(1)<<((last&63)+1) - 1
		}
		fn(c, m)
	}
}

// TrapCount returns the total number of words currently trapped. The
// two-level summary makes this a sum over dirty chunks only; clean
// super-chunks (the vast majority of physical memory) are skipped.
func (p *Phys) TrapCount() int {
	n := 0
	for s, sp := range p.superPop {
		if sp == 0 {
			continue
		}
		base := s * superSize
		end := base + superSize
		if end > len(p.chunkPop) {
			end = len(p.chunkPop)
		}
		for c := base; c < end; c++ {
			n += int(p.chunkPop[c])
		}
	}
	return n
}

// CheckSummaries verifies the two-level occupancy summaries against the
// backing arrays by brute force. For tests and invariant assertions only.
func (p *Phys) CheckSummaries() error {
	superNZ := make([]uint8, len(p.superPop))
	for c, v := range p.trapBits {
		if p.twBits[c]&^v != 0 {
			return fmt.Errorf("mem: chunk %d: tw bits %#x outside trap bits %#x", c, p.twBits[c], v)
		}
		if got, want := p.chunkPop[c], uint8(bits.OnesCount64(v)); got != want {
			return fmt.Errorf("mem: chunk %d: chunkPop %d, want %d", c, got, want)
		}
		if v != 0 {
			superNZ[c/superSize]++
		}
	}
	for s, want := range superNZ {
		if p.superPop[s] != want {
			return fmt.Errorf("mem: super %d: superPop %d, want %d", s, p.superPop[s], want)
		}
	}
	for w, m := range p.ecc {
		if m == 0 || m&(1<<twCheckBit) != 0 {
			return fmt.Errorf("mem: ecc[%d] = %#x holds a zero or Tapeworm-bit entry", w, m)
		}
		if !p.TrappedWord(PAddr(w) * WordBytes) {
			return fmt.Errorf("mem: ecc[%d] set but trap bit clear", w)
		}
	}
	return nil
}

func popcount(x uint64) int { return bits.OnesCount64(x) }

// Stats reports cumulative counts of trap set/clear word operations.
func (p *Phys) Stats() (set, cleared uint64) { return p.trapsSet, p.trapsCleared }

// --- Union arming (gang attach) ---

// SetTrapDestroyedHook registers fn to be called (with a word-aligned
// address) for every Tapeworm trap destroyed by something other than
// DisarmWords: DMA overwrites, silent write-around clears, true-error
// correction. Pass nil to unregister.
func (p *Phys) SetTrapDestroyedHook(fn func(pa PAddr)) { p.destroyed = fn }

// noteDestroyed reports the destruction of word w's Tapeworm trap to the
// destroyed hook, if one is installed.
func (p *Phys) noteDestroyed(w uint32) {
	if p.destroyed != nil {
		p.destroyed(PAddr(w) * WordBytes)
	}
}

// ArmWords arms the words m of 64-word chunk ch for their first holder in
// a gang: the caller tracks which simulators hold each word and calls this
// only when a word gains its first one. A word already carrying the
// Tapeworm bit (an orphan left by an earlier run) is adopted without a
// second flip. Words carrying a true memory error are refused — never
// stack corruption on a real fault — and returned, unarmed.
func (c *Controller) ArmWords(ch uint32, m uint64) (refused uint64) {
	p := c.phys
	if len(p.ecc) != 0 {
		// Only words with some corruption can carry a true error.
		for rem := m & p.trapBits[ch]; rem != 0; rem &= rem - 1 {
			b := bits.TrailingZeros64(rem)
			if p.ecc[ch<<6+uint32(b)] != 0 {
				refused |= 1 << uint(b)
			}
		}
	}
	add := m &^ refused &^ p.twBits[ch]
	if add == 0 {
		return refused
	}
	p.ensureOwned()
	p.twBits[ch] |= add
	p.writeChunk(ch, p.trapBits[ch]|add)
	p.trapsSet += uint64(popcount(add))
	return refused
}

// DisarmWords restores correct ECC to the words m of chunk ch as their
// last holder in a gang releases them. It is the holders' own release, so
// it does not call the destroyed hook. True-error state is preserved.
func (c *Controller) DisarmWords(ch uint32, m uint64) {
	p := c.phys
	remove := m & p.twBits[ch]
	if remove == 0 {
		return
	}
	p.ensureOwned()
	p.twBits[ch] &^= remove
	p.trapsCleared += uint64(popcount(remove))
	if len(p.ecc) == 0 {
		p.writeChunk(ch, p.trapBits[ch]&^remove)
		return
	}
	for rem := remove; rem != 0; rem &= rem - 1 {
		p.syncTrapBit(ch<<6 + uint32(bits.TrailingZeros64(rem)))
	}
}

// --- ECC state ---

// ECCState returns the corruption mask of the word containing pa
// (0 = correct ECC).
func (p *Phys) ECCState(pa PAddr) uint64 {
	return p.mask(p.wordIndex(pa))
}

// Syndrome classifies the ECC state of one word.
type Syndrome int

const (
	// SynOK: the word's ECC is consistent; no trap.
	SynOK Syndrome = iota
	// SynTapeworm: exactly the Tapeworm check bit is flipped; this trap
	// was set by tw_set_trap and represents a simulated miss.
	SynTapeworm
	// SynSingleBit: a single-bit error in a non-Tapeworm position — a
	// true, correctable memory error.
	SynSingleBit
	// SynDoubleBit: a double-bit (uncorrectable) error — always a true
	// memory error, even while Tapeworm is active.
	SynDoubleBit
)

// String names the syndrome.
func (s Syndrome) String() string {
	switch s {
	case SynOK:
		return "ok"
	case SynTapeworm:
		return "tapeworm-trap"
	case SynSingleBit:
		return "single-bit-error"
	case SynDoubleBit:
		return "double-bit-error"
	}
	return fmt.Sprintf("Syndrome(%d)", int(s))
}

// Classify decodes the corruption mask of the word at pa into a Syndrome.
// The single-error-correcting, double-error-detecting code distinguishes
// exactly these cases (footnote 1 of Section 3.2): a flip of the dedicated
// Tapeworm check bit is a simulated miss; a flip anywhere else, or two or
// more flips, is a true error detected with high probability.
func (p *Phys) Classify(pa PAddr) Syndrome {
	mask := p.mask(p.wordIndex(pa))
	switch popcount(mask) {
	case 0:
		return SynOK
	case 1:
		if mask == 1<<twCheckBit {
			return SynTapeworm
		}
		return SynSingleBit
	default:
		return SynDoubleBit
	}
}

// InjectError flips bit position bit (0..38) of the word at pa, modelling a
// genuine memory fault. Injecting on a word that already carries a Tapeworm
// trap produces a double-bit syndrome, which Tapeworm must report as a true
// error rather than consume as a simulated miss.
func (p *Phys) InjectError(pa PAddr, bit uint) {
	if bit > 38 {
		panic(fmt.Sprintf("mem: ECC bit position %d out of range (0-38)", bit))
	}
	p.ensureOwned()
	w := p.wordIndex(pa)
	hadTrap := p.twSet(w)
	if bit == twCheckBit {
		p.twBits[w>>6] ^= 1 << (w & 63)
	} else {
		p.ecc[w] ^= 1 << bit
		if p.ecc[w] == 0 {
			delete(p.ecc, w)
		}
	}
	p.syncTrapBit(w)
	if hadTrap && !p.twSet(w) {
		p.noteDestroyed(w)
	}
}

// CorrectWord restores correct ECC to the word at pa, as the kernel's
// memory-error handler does after correcting a true single-bit error.
func (p *Phys) CorrectWord(pa PAddr) {
	p.ensureOwned()
	w := p.wordIndex(pa)
	hadTrap := p.twSet(w)
	p.twBits[w>>6] &^= 1 << (w & 63)
	delete(p.ecc, w)
	p.syncTrapBit(w)
	if hadTrap {
		p.noteDestroyed(w)
	}
}

// syncTrapBit keeps the dense any-corruption bitset consistent with the
// word's full mask: the machine raises a memory-error trap whenever a
// word's ECC is inconsistent for any reason.
func (p *Phys) syncTrapBit(w uint32) {
	c, b := w>>6, uint64(1)<<(w&63)
	v := p.trapBits[c]
	if p.twBits[c]&b != 0 || p.ecc[w] != 0 {
		v |= b
	} else {
		v &^= b
	}
	p.writeChunk(c, v)
}

// Controller is the memory-controller ASIC diagnostic interface. Tapeworm's
// machine-dependent layer drives it to implement tw_set_trap and
// tw_clear_trap. The interface is deliberately awkward — a flip call per
// word and a multi-step error-address reconstruction — mirroring the
// "convoluted sequence of control instructions" the paper describes; the
// cycle costs of that awkwardness are charged by the machine layer.
type Controller struct {
	phys *Phys
}

// NewController returns the diagnostic controller for phys.
func NewController(phys *Phys) *Controller { return &Controller{phys: phys} }

// FlipTapewormBit toggles the dedicated Tapeworm check bit of every word in
// [pa, pa+size). Flipping a correct word sets a trap; flipping a trapped
// word restores correct ECC. Size is rounded up to whole words.
func (c *Controller) FlipTapewormBit(pa PAddr, size int) {
	if size <= 0 {
		size = WordBytes
	}
	p := c.phys
	p.ensureOwned()
	first, last := p.wordRange(pa, size)
	forChunks(first, last, func(ch uint32, m uint64) {
		if len(p.ecc) == 0 || p.chunkPop[ch] == 0 {
			// No true errors in this chunk (an ecc entry would have its
			// trap bit set, so a zero-population chunk is wholly clean):
			// toggle all covered words in one bitset op.
			wasSet := p.twBits[ch] & m
			p.twBits[ch] ^= m
			p.writeChunk(ch, p.trapBits[ch]&^m|p.twBits[ch]&m)
			if p.destroyed != nil {
				for rem := wasSet; rem != 0; rem &= rem - 1 {
					p.noteDestroyed(ch<<6 + uint32(bits.TrailingZeros64(rem)))
				}
			}
			return
		}
		for rem := m; rem != 0; rem &= rem - 1 {
			w := ch<<6 + uint32(bits.TrailingZeros64(rem))
			p.twBits[ch] ^= 1 << (w & 63)
			p.syncTrapBit(w)
			if !p.twSet(w) {
				p.noteDestroyed(w)
			}
		}
	})
}

// SetTrap sets the Tapeworm trap on [pa, pa+size), idempotently: words
// already trapped by Tapeworm are left alone (flipping twice would clear
// them). Words carrying true errors are also left alone.
func (c *Controller) SetTrap(pa PAddr, size int) {
	if size <= 0 {
		size = WordBytes
	}
	p := c.phys
	p.ensureOwned()
	first, last := p.wordRange(pa, size)
	forChunks(first, last, func(ch uint32, m uint64) {
		if len(p.ecc) == 0 || p.chunkPop[ch] == 0 {
			add := m &^ p.twBits[ch]
			if add == 0 {
				return
			}
			p.twBits[ch] |= add
			p.writeChunk(ch, p.trapBits[ch]|add)
			p.trapsSet += uint64(popcount(add))
			return
		}
		for rem := m; rem != 0; rem &= rem - 1 {
			w := ch<<6 + uint32(bits.TrailingZeros64(rem))
			if p.ecc[w] == 0 && !p.twSet(w) {
				p.twBits[ch] |= 1 << (w & 63)
				p.syncTrapBit(w)
				p.trapsSet++
			}
		}
	})
}

// ClearTrap removes Tapeworm traps from [pa, pa+size). True-error state is
// preserved: clearing a region never masks a genuine fault. Clean chunks —
// the common case when pages are unregistered wholesale — are skipped via
// the occupancy summary without touching the bitset.
func (c *Controller) ClearTrap(pa PAddr, size int) {
	if size <= 0 {
		size = WordBytes
	}
	p := c.phys
	if p.img != nil && !p.Trapped(pa, size) {
		// Still sharing a checkpoint image and the range is clean: nothing
		// to clear, so skip copy-on-write materialization entirely. This
		// keeps trap-free DMA and page teardown on a fork from copying the
		// tables.
		return
	}
	p.ensureOwned()
	first, last := p.wordRange(pa, size)
	forChunks(first, last, func(ch uint32, m uint64) {
		if p.chunkPop[ch] == 0 {
			return
		}
		remove := m & p.twBits[ch]
		if remove == 0 {
			return
		}
		if len(p.ecc) == 0 {
			p.twBits[ch] &^= remove
			p.writeChunk(ch, p.trapBits[ch]&^remove)
			p.trapsCleared += uint64(popcount(remove))
			if p.destroyed != nil {
				for rem := remove; rem != 0; rem &= rem - 1 {
					p.noteDestroyed(ch<<6 + uint32(bits.TrailingZeros64(rem)))
				}
			}
			return
		}
		for rem := remove; rem != 0; rem &= rem - 1 {
			w := ch<<6 + uint32(bits.TrailingZeros64(rem))
			p.twBits[ch] &^= 1 << (w & 63)
			p.syncTrapBit(w)
			p.trapsCleared++
			p.noteDestroyed(w)
		}
	})
}

// ReconstructErrorAddress pieces together the failing physical address from
// the controller's error registers after a memory-error trap. On the real
// ASIC this takes about a dozen load/shift/add/mask instructions; the
// machine layer charges that cost. Here it validates and echoes the
// faulting address, panicking if no error is actually latched there.
func (c *Controller) ReconstructErrorAddress(pa PAddr) PAddr {
	if c.phys.Classify(pa) == SynOK {
		panic(fmt.Sprintf("mem: ReconstructErrorAddress(%#x): no error latched", pa))
	}
	return pa &^ (WordBytes - 1)
}
