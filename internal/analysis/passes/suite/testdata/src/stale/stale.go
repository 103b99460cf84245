// Package stale exercises full-suite stale-directive detection: a
// suppression directive that never met a would-be finding is itself
// reported by the staledirective scan, while load-bearing directives —
// including ones consumed by a different pass than the one that would
// have fired — stay silent. Only RunSuite (the complete analyzer set)
// can observe this: a single-analyzer golden cannot see another pass's
// usage marks.
//
//twvet:scope determinism
//twvet:scope lockcheck
package stale

import (
	"sort"
	"sync"
)

// sumCounts accumulates over map order; addition commutes, so the
// directive suppresses a real determinism finding and is load-bearing.
func sumCounts(m map[string]int) int {
	total := 0
	//twvet:allow maporder — addition commutes
	for _, v := range m {
		total += v
	}
	return total
}

// sortedKeys already follows the collect-then-sort idiom, which the
// determinism pass recognizes before consulting directives: the
// annotation suppresses nothing.
func sortedKeys(m map[string]int) []string {
	var keys []string
	//twvet:allow maporder // want `//twvet:allow maporder directive suppressed nothing this run: delete it`
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

type handoff struct {
	mu sync.Mutex
	n  int
}

// beginCritical returns holding the lock by contract; lockcheck consults
// the directive at the imbalance, so it is load-bearing.
//
//twvet:allow lockcheck
func (h *handoff) beginCritical() *int {
	h.mu.Lock()
	return &h.n
}

// endCritical is beginCritical's paired release.
//
//twvet:allow lockcheck
func (h *handoff) endCritical() {
	h.mu.Unlock()
}

// balancedAnyway is lock-balanced on every path: lockcheck never needs
// the escape hatch.
//
//twvet:allow lockcheck needlessly // want `//twvet:allow lockcheck directive suppressed nothing this run: delete it`
func (h *handoff) balancedAnyway() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.n++
}

var (
	_ = sumCounts
	_ = sortedKeys
	_ = (*handoff).beginCritical
	_ = (*handoff).endCritical
	_ = (*handoff).balancedAnyway
)
