package experiment

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tapeworm/internal/mem"
	"tapeworm/internal/workload"
)

// FuzzOptionsValidate feeds Validate arbitrary option values — NaN,
// infinite and negative scales, any counts, any directory strings — and
// requires a nil or error result, never a panic. Options it accepts must
// satisfy every invariant its checks promise the drivers.
func FuzzOptionsValidate(f *testing.F) {
	dir := f.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		f.Fatal(err)
	}
	q := QuickOptions()
	f.Add(q.Scale, q.Trials, q.Frames, 0, false, "", false, "", 0, 0, 0)
	f.Add(100.0, 16, 8192, 8, true, dir, true, dir, 16, 4, 1000)
	f.Add(math.NaN(), 1, 4096, 0, false, "", false, "", 0, 0, 0)
	f.Add(math.Inf(1), 1, 4096, 0, false, "", false, "", 0, 0, 0)
	f.Add(math.Inf(-1), 1, 4096, 0, false, "", false, "", 0, 0, 0)
	f.Add(-1.0, 0, -8, -2, false, "", false, "", -1, -1, -1)
	f.Add(0.0, 1, 4096, 0, false, "", false, "", 0, 0, 0)
	f.Add(1e12, 1, 4096, 0, false, "", false, "", 0, 0, 0)
	f.Add(1e-300, 1, 4096, 0, false, "", false, "", 0, 0, 0)
	f.Add(1.0, 1, 1<<22, 0, false, dir, false, dir, 0, 1, 0)
	f.Add(1.0, 1, 1<<20, 0, true, " ", true, "\t", 4, 5, 0)
	f.Add(1.0, 1, 1, 0, true, file, true, file, 0, 0, 3)
	f.Fuzz(func(t *testing.T, scale float64, trials, frames, parallelism int,
		checkpoint bool, checkpointDir string, resultCache bool, resultCacheDir string,
		intervals, k, warmup int) {
		o := Options{
			Scale: scale, Trials: trials, Frames: frames, Parallelism: parallelism,
			Checkpoint: checkpoint, CheckpointDir: checkpointDir,
			ResultCache: resultCache, ResultCacheDir: resultCacheDir,
			PhaseIntervals: intervals, PhaseK: k, PhaseWarmup: warmup,
		}
		if o.Validate() != nil {
			return
		}
		if !(scale > 0) || math.IsInf(scale, 0) {
			t.Fatalf("accepted scale %v", scale)
		}
		workload.Specs(scale) // panics on a scale the drivers cannot run
		if trials < 1 || parallelism < 0 {
			t.Fatalf("accepted %d trials, parallelism %d", trials, parallelism)
		}
		if err := mem.CheckPhysSize(frames, 4096); err != nil {
			t.Fatalf("accepted frames %d: %v", frames, err)
		}
		for _, d := range []struct {
			path string
			on   bool
		}{{checkpointDir, checkpoint}, {resultCacheDir, resultCache}} {
			if d.path == "" {
				continue
			}
			if !d.on || strings.TrimSpace(d.path) == "" {
				t.Fatalf("accepted directory %q with its cache on = %v", d.path, d.on)
			}
			if st, err := os.Stat(d.path); err == nil && !st.IsDir() {
				t.Fatalf("accepted non-directory %q", d.path)
			}
		}
		if intervals < 0 || k < 0 || warmup < 0 {
			t.Fatalf("accepted negative phase options %d/%d/%d", intervals, k, warmup)
		}
		if intervals > 0 && (k < 1 || k > intervals) {
			t.Fatalf("accepted PhaseK %d for %d intervals", k, intervals)
		}
		if intervals == 0 && (k != 0 || warmup != 0) {
			t.Fatalf("accepted PhaseK %d, PhaseWarmup %d without intervals", k, warmup)
		}
	})
}
