// Package mem is a golden-test stand-in for the real
// tapeworm/internal/mem: it redeclares the trap-refcount chunk summary
// API under the same import path, so the pairing analyzer's
// fully-qualified name matching sees the genuine
// (*tapeworm/internal/mem.Phys).refChunkInc/refChunkDec pair without the
// test depending on the real package's (transfer-annotated) internals.
package mem

// Phys mirrors the summary-bearing fields of the real mem.Phys.
type Phys struct {
	trapRef  []uint8
	refChunk []uint8
}

func (p *Phys) refChunkInc(w uint32) { p.refChunk[w>>6]++ }
func (p *Phys) refChunkDec(w uint32) { p.refChunk[w>>6]-- }

// incDecBalanced pairs the summary increment with its decrement on the
// straight-line path.
func (p *Phys) incDecBalanced(w uint32) {
	p.refChunkInc(w)
	p.refChunkDec(w)
}

// incWithoutDec records a 0→nonzero transition in the summary without
// the balancing decrement: the summary would diverge from the word refs.
func (p *Phys) incWithoutDec(w uint32) {
	p.refChunkInc(w)
} // want `trap refcount chunk summary acquired but not released`

// branchImbalance decrements the summary on only one arm.
func (p *Phys) branchImbalance(w uint32, drop bool) {
	p.refChunkInc(w)
	if drop { // want `paths through this branch disagree`
		p.refChunkDec(w)
	}
}

// loopLeak increments once per iteration without balancing.
func (p *Phys) loopLeak(n int) {
	for i := 0; i < n; i++ { // want `loop iteration acquires`
		p.refChunkInc(uint32(i))
	}
}

// adoptRef moves the summary increment across the function boundary by
// design (the real AddTrapRef holds it until ReleaseTrapRef or a
// destroyed-trap notification).
//
//twvet:transfer
func (p *Phys) adoptRef(w uint32) {
	p.refChunkInc(w)
}

var _ = (*Phys).incDecBalanced
var _ = (*Phys).incWithoutDec
var _ = (*Phys).branchImbalance
var _ = (*Phys).loopLeak
var _ = (*Phys).adoptRef
