package cache

import (
	"fmt"

	"tapeworm/internal/mem"
	"tapeworm/internal/rng"
)

// Split pairs an instruction cache with a data cache, routing each access
// by reference kind. tw_replace "can simulate ... split, unified or
// multi-level caches" (Section 3.2); a unified cache is simply a single
// Cache receiving both kinds.
type Split struct {
	I *Cache
	D *Cache
}

// NewSplit builds a split cache from the two configurations.
func NewSplit(icfg, dcfg Config, rnd *rng.Source) (*Split, error) {
	ic, err := New(icfg, rnd)
	if err != nil {
		return nil, fmt.Errorf("icache: %w", err)
	}
	dc, err := New(dcfg, rnd)
	if err != nil {
		return nil, fmt.Errorf("dcache: %w", err)
	}
	return &Split{I: ic, D: dc}, nil
}

// Side returns the cache handling references of kind k.
func (s *Split) Side(k mem.RefKind) *Cache {
	if k == mem.IFetch {
		return s.I
	}
	return s.D
}

// Access routes one reference to the appropriate side.
func (s *Split) Access(task mem.TaskID, addr uint32, k mem.RefKind) (hit bool, displaced Key, evicted bool) {
	return s.Side(k).Access(task, addr)
}

// TwoLevel is an L1 backed by an L2. A reference hitting L1 touches only
// L1; an L1 miss probes L2; an overall miss fills both. Lines displaced
// from L1 remain in L2 (the hierarchy is inclusive: every L1 line is also
// in L2, maintained by filling L2 on every overall miss and invalidating
// L1 when L2 evicts).
//
// For trap-driven simulation the interesting boundary is the overall miss:
// Tapeworm sets traps only on lines absent from every level, so a trap
// fires exactly when DidMiss both levels — the Displaced keys returned from
// L2 are where new traps go.
type TwoLevel struct {
	L1 *Cache
	L2 *Cache
}

// NewTwoLevel builds a two-level hierarchy. L2 must be at least as large
// as L1 and have a line size that is a multiple of L1's, or inclusion
// cannot be maintained.
func NewTwoLevel(l1cfg, l2cfg Config, rnd *rng.Source) (*TwoLevel, error) {
	if l2cfg.Size < l1cfg.Size {
		return nil, fmt.Errorf("cache: L2 (%d) smaller than L1 (%d)", l2cfg.Size, l1cfg.Size)
	}
	if l2cfg.LineSize%l1cfg.LineSize != 0 {
		return nil, fmt.Errorf("cache: L2 line %d not a multiple of L1 line %d",
			l2cfg.LineSize, l1cfg.LineSize)
	}
	if l1cfg.Indexing != l2cfg.Indexing {
		return nil, fmt.Errorf("cache: mixed indexing in hierarchy")
	}
	l1, err := New(l1cfg, rnd)
	if err != nil {
		return nil, fmt.Errorf("L1: %w", err)
	}
	l2, err := New(l2cfg, rnd)
	if err != nil {
		return nil, fmt.Errorf("L2: %w", err)
	}
	return &TwoLevel{L1: l1, L2: l2}, nil
}

// Level identifies where a hierarchical access hit.
type Level int

const (
	// MissAll means the reference missed every level.
	MissAll Level = iota
	// HitL1 means the reference hit the first level.
	HitL1
	// HitL2 means the reference missed L1 but hit L2.
	HitL2
)

// String names the hit level.
func (l Level) String() string {
	switch l {
	case HitL1:
		return "L1"
	case HitL2:
		return "L2"
	}
	return "miss"
}

// Access simulates one reference through the hierarchy. Displaced reports
// the L2 lines evicted by an overall miss (the locations on which Tapeworm
// would set new traps); inclusion invalidates the same lines in L1.
func (t *TwoLevel) Access(task mem.TaskID, addr uint32) (level Level, displaced []Key) {
	if hit, _, _ := t.L1.Access(task, addr); hit {
		return HitL1, nil
	}
	// L1 miss: L1.Access already inserted the line into L1 (evicting an L1
	// victim, which stays in L2 under inclusion). Now check L2.
	if hit, _, _ := t.L2.Access(task, addr); hit {
		return HitL2, nil
	}
	// Overall miss: L2.Access inserted into L2 too. Its victim (if any)
	// must leave L1 as well. L2.Access returned before we could grab the
	// victim — redo via explicit probe-free protocol below.
	return MissAll, displaced
}

// AccessDetail is like Access but surfaces the L2 eviction, if any, so
// callers can maintain trap state. It performs the same state transitions.
func (t *TwoLevel) AccessDetail(task mem.TaskID, addr uint32) (level Level, l2Victim Key, evicted bool) {
	if hit, _, _ := t.L1.Access(task, addr); hit {
		return HitL1, Key{}, false
	}
	if t.L2.Probe(task, addr) {
		t.L2.Access(task, addr) // refresh L2 replacement state
		return HitL2, Key{}, false
	}
	_, victim, evicted := t.L2.Access(task, addr)
	if evicted {
		// Inclusion: evicting from L2 forces the line out of L1 in all
		// L1-sized chunks covered by the L2 line.
		step := uint32(t.L1.Config().LineSize)
		for a := victim.Addr; a < victim.Addr+uint32(t.L2.Config().LineSize); a += step {
			t.L1.Invalidate(victim.Task, a)
		}
	}
	return MissAll, victim, evicted
}

// Contains reports whether the line holding addr is resident anywhere in
// the hierarchy.
func (t *TwoLevel) Contains(task mem.TaskID, addr uint32) bool {
	return t.L1.Probe(task, addr) || t.L2.Probe(task, addr)
}

// CheckInclusion verifies that every valid L1 line is covered by a valid
// L2 line; tests use it as the hierarchy invariant.
func (t *TwoLevel) CheckInclusion() error {
	for _, k := range t.L1.Keys() {
		if !t.L2.Probe(k.Task, k.Addr) {
			return fmt.Errorf("cache: L1 line %+v not present in L2 (inclusion violated)", k)
		}
	}
	return nil
}
