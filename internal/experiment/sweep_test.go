package experiment

import (
	"strings"
	"testing"
)

// TestSweepRejectsCacheBeyondMemory: a grid point larger than the
// simulated machine's physical memory fails the sweep with an error that
// names both sizes, before any tag store for it is allocated (a 1 TB
// cache's tag store would exhaust the host).
func TestSweepRejectsCacheBeyondMemory(t *testing.T) {
	o := QuickOptions()
	_, err := Sweep(o, SweepConfig{Workload: "espresso",
		Sizes: []int{1 << 40}, Assocs: []int{1}, Lines: []int{16}})
	if err == nil || !strings.Contains(err.Error(), "cache size 1099511627776 bytes exceeds the machine's 16777216 bytes of physical memory") {
		t.Fatalf("Sweep err = %v, want the physical-memory bound", err)
	}
}
