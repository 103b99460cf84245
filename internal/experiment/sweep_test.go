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

// TestSweepWideGangMatchesSolo: a 256-point grid — four 64-bit member-mask
// words — runs as one gang and renders byte-identical to the same grid on
// the reference executor, every point on its own execution. Gangs of 256
// or more ECC members once overflowed an 8-bit per-word trap reference
// count and panicked.
func TestSweepWideGangMatchesSolo(t *testing.T) {
	grid := SweepConfig{Workload: "espresso",
		Sizes:  []int{16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20},
		Assocs: []int{1, 2, 4, 8},
		Lines:  []int{16, 32, 64, 128, 256, 512, 1024, 2048}}
	if grid.Points() < 256 {
		t.Fatalf("grid has %d points, want at least 256", grid.Points())
	}
	render := func(reference bool) string {
		o := Options{Scale: 4000, Seed: 1994, Trials: 1, Frames: 4096, reference: reference}
		tab, err := Sweep(o, grid)
		if err != nil {
			t.Fatal(err)
		}
		return tab.Render()
	}
	if ganged, solo := render(false), render(true); ganged != solo {
		t.Errorf("256-member gang diverged from solo runs:\n--- gang ---\n%s\n--- solo ---\n%s", ganged, solo)
	}
}
