package experiment

import (
	"math"
	"testing"

	"tapeworm/internal/kernel"
	"tapeworm/internal/workload"
)

// TestTable4Calibration guards the workload calibration against drift: at
// a moderate scale, every workload's measured component shares must stay
// within a few points of the paper's Table 4 targets. This is the
// regression net for the syscall-rate solver, the fixed-cost model, and
// the kernel's service costs — any change to those constants shows up
// here before it distorts the reproduced tables.
func TestTable4Calibration(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second calibration check")
	}
	const scale = 400
	// Tolerances in percentage points. Fork-heavy workloads carry fixed
	// per-task kernel costs that do not shrink with scale, so they get
	// wider bands at this reduced scale (see EXPERIMENTS.md).
	tolerance := map[string]float64{
		"xlisp": 4, "espresso": 4, "eqntott": 4, "mpeg_play": 4,
		"jpeg_play": 4, "ousterhout": 6, "sdet": 8, "kenbus": 35,
	}
	for _, spec := range workload.Specs(scale) {
		res, err := run(runConfig{
			spec: spec, seed: 1, pageSeed: 1, frames: 8192,
		})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		total := float64(res.Snap.Instructions)
		got := map[string]float64{
			"kernel": 100 * float64(res.Comp[kernel.CompKernel]) / total,
			"bsd":    100 * float64(res.BSDInstr) / total,
			"x":      100 * float64(res.XInstr) / total,
			"user":   100 * float64(res.Comp[kernel.CompUser]) / total,
		}
		want := map[string]float64{
			"kernel": 100 * spec.FracKernel,
			"bsd":    100 * spec.FracBSD,
			"x":      100 * spec.FracX,
			"user":   100 * spec.FracUser,
		}
		tol := tolerance[spec.Name]
		for comp := range want {
			if diff := math.Abs(got[comp] - want[comp]); diff > tol {
				t.Errorf("%s %s share: measured %.1f%%, target %.1f%% (tolerance %.0f points)",
					spec.Name, comp, got[comp], want[comp], tol)
			}
		}
		if res.Tasks != spec.Tasks {
			t.Errorf("%s spawned %d tasks, want %d", spec.Name, res.Tasks, spec.Tasks)
		}
	}
}
