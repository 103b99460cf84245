package experiment

import (
	"errors"
	"strings"
	"testing"

	"tapeworm/internal/kernel"
	"tapeworm/internal/mach"
	"tapeworm/internal/workload"
)

// Interval tests run at their own seeds so the process-wide profile and
// interval checkpoint caches never alias entries across tests.

func phaseOptions(parallelism int, seed uint64) Options {
	o := parallelOptions(parallelism)
	o.Seed = seed
	o.PhaseIntervals = 8
	o.PhaseK = 2
	o.PhaseWarmup = 2000
	return o
}

func TestOptionsValidatePhase(t *testing.T) {
	cases := []struct {
		name                 string
		intervals, k, warmup int
		wantErr              string
	}{
		{"off", 0, 0, 0, ""},
		{"on", 8, 2, 1000, ""},
		{"k equals intervals", 4, 4, 0, ""},
		{"negative intervals", -1, 0, 0, "PhaseIntervals must be non-negative"},
		{"negative k", 8, -2, 0, "PhaseK must be non-negative"},
		{"negative warmup", 8, 2, -5, "PhaseWarmup must be non-negative"},
		{"zero k with intervals", 8, 0, 0, "requires PhaseK"},
		{"k exceeds intervals", 4, 5, 0, "exceeds PhaseIntervals"},
		{"k without intervals", 0, 2, 0, "require PhaseIntervals"},
		{"warmup without intervals", 0, 0, 500, "require PhaseIntervals"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := QuickOptions()
			o.PhaseIntervals, o.PhaseK, o.PhaseWarmup = c.intervals, c.k, c.warmup
			err := o.Validate()
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("valid options rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("err = %v, want %q", err, c.wantErr)
			}
		})
	}
}

// TestIntervalReplayErrorBound is the in-process core of the
// `make verify-intervals` gate: a gang-heavy experiment rendered through
// representative-interval replay must stay within the error budget of its
// exhaustive render, with identical table shape and text cells.
func TestIntervalReplayErrorBound(t *testing.T) {
	o := parallelOptions(1)
	o.Seed = 3031
	exhaustive, err := Figure3(o)
	if err != nil {
		t.Fatal(err)
	}
	op := phaseOptions(1, 3031)
	sampled, err := Figure3(op)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := TableError(exhaustive, sampled, 100)
	if err != nil {
		t.Fatalf("tables not comparable: %v", err)
	}
	// The in-process budget is looser than the paper-scale CI gate (2%):
	// test workloads are tiny, so each representative stands for few
	// instructions and sampling noise is proportionally larger.
	if rel > 0.10 {
		t.Fatalf("interval replay error %.3f exceeds 10%% at test scale:\n--- exhaustive ---\n%s\n--- sampled ---\n%s",
			rel, exhaustive.Render(), sampled.Render())
	}
}

// TestIntervalReplayDeterministic: interval-sampled tables are
// extrapolated but still deterministic — byte-identical across
// parallelism and repetition.
func TestIntervalReplayDeterministic(t *testing.T) {
	render := func(parallelism int) string {
		tab, err := Figure3(phaseOptions(parallelism, 3032))
		if err != nil {
			t.Fatal(err)
		}
		return tab.Render()
	}
	want := render(1)
	for _, p := range []int{1, 8} {
		if got := render(p); got != want {
			t.Fatalf("interval render at parallelism %d differs:\n--- want ---\n%s\n--- got ---\n%s", p, want, got)
		}
	}
}

// TestIntervalFallbackNoCompile: runs that cannot take the interval path
// (interpreted workloads have no resumable cursors) must fall back to the
// exhaustive gang and render byte-identically to phase-off.
func TestIntervalFallbackNoCompile(t *testing.T) {
	o := parallelOptions(1)
	o.Seed = 3033
	o.NoCompile = true
	want, err := Table6(o)
	if err != nil {
		t.Fatal(err)
	}
	op := phaseOptions(1, 3033)
	op.NoCompile = true
	got, err := Table6(op)
	if err != nil {
		t.Fatal(err)
	}
	if want.Render() != got.Render() {
		t.Fatal("NoCompile interval fallback not byte-identical to exhaustive")
	}
}

// TestIntervalCheckpointGeometryEviction: changing the phase geometry
// mid-process must evict the stale per-interval checkpoints (their
// capture points no longer match any plan) and count the evictions.
func TestIntervalCheckpointGeometryEviction(t *testing.T) {
	o := phaseOptions(1, 3034)
	if _, err := Figure3(o); err != nil {
		t.Fatal(err)
	}
	_, _, ev0 := CheckpointStats()
	o2 := o
	o2.PhaseIntervals = 6
	o2.PhaseK = 3
	if _, err := Figure3(o2); err != nil {
		t.Fatal(err)
	}
	_, _, ev1 := CheckpointStats()
	if ev1 <= ev0 {
		t.Fatalf("geometry change evicted nothing (evictions %d -> %d)", ev0, ev1)
	}
}

// TestIntervalCheckpointCacheBound: the interval checkpoint cache must
// stay within its LRU bound no matter how many representatives a sweep
// captures.
func TestIntervalCheckpointCacheBound(t *testing.T) {
	o := phaseOptions(1, 3035)
	o.PhaseIntervals = 12
	o.PhaseK = 6
	if _, err := Figure3(o); err != nil {
		t.Fatal(err)
	}
	ckMu.Lock()
	n := len(ckCache)
	ckMu.Unlock()
	if n > maxCachedIntervalCheckpoints {
		t.Fatalf("%d interval checkpoints cached, bound is %d", n, maxCachedIntervalCheckpoints)
	}
}

// TestIntervalProfileReuse: every gang group sharing a workload identity
// must be served by one profiling pass — a repeated render re-replays the
// representatives but profiles nothing.
func TestIntervalProfileReuse(t *testing.T) {
	ResetIntervalProfiles()
	o := phaseOptions(1, 3037)
	if _, err := Figure3(o); err != nil {
		t.Fatal(err)
	}
	profiles, groups := IntervalStats()
	if profiles == 0 || groups == 0 {
		t.Fatalf("no interval traffic recorded: %d profiles, %d groups", profiles, groups)
	}
	if _, err := Figure3(o); err != nil {
		t.Fatal(err)
	}
	profiles2, groups2 := IntervalStats()
	if profiles2 != profiles {
		t.Fatalf("repeated render re-profiled: %d -> %d passes", profiles, profiles2)
	}
	if groups2 <= groups {
		t.Fatalf("repeated render served no groups from the cache (%d -> %d)", groups, groups2)
	}
}

func TestTableError(t *testing.T) {
	a := &Table{ID: "t", Rows: [][]string{{"espresso", "1000", "0.50"}}}
	b := &Table{ID: "t", Rows: [][]string{{"espresso", "1030", "0.50"}}}
	rel, err := TableError(a, b, 100)
	if err != nil {
		t.Fatal(err)
	}
	if rel < 0.029 || rel > 0.031 {
		t.Fatalf("rel = %v, want 0.03", rel)
	}
	// Below the magnitude floor: ignored.
	if rel, err = TableError(a, b, 2000); err != nil || rel != 0 {
		t.Fatalf("floored rel = %v, err %v", rel, err)
	}
	// Text mismatch is an error, not a distance.
	c := &Table{ID: "t", Rows: [][]string{{"sdet", "1000", "0.50"}}}
	if _, err := TableError(a, c, 100); err == nil {
		t.Fatal("text mismatch not detected")
	}
}

func TestPhaseNote(t *testing.T) {
	if n := PhaseNote(QuickOptions(), 1); n != "" {
		t.Fatalf("phase-off note = %q", n)
	}
	o := phaseOptions(1, 1)
	if n := PhaseNote(o, 1); !strings.Contains(n, "8 intervals") || !strings.Contains(n, "2 phases") ||
		!strings.Contains(n, "extrapolated (error-bound-gated") {
		t.Fatalf("phase note = %q", n)
	}
	if n := PhaseNote(o, 0); !strings.Contains(n, "8 intervals") || !strings.Contains(n, "fell back to exhaustive replay") {
		t.Fatalf("fallback phase note = %q", n)
	}
}

// TestIntervalStreamTooLargeFallback: a stream past the compile budget
// has no cursors to checkpoint; the interval path must fall back rather
// than fail the run.
func TestIntervalStreamTooLargeFallback(t *testing.T) {
	spec, err := workload.ByName("espresso", 1)
	if err != nil {
		t.Fatal(err)
	}
	rc := runConfig{spec: spec, seed: 40, pageSeed: 40, frames: 4096}
	kcfg := kernel.DefaultConfig(mach.DECstation5000_200(4096), rc.seed)
	kcfg.PageSeed = rc.pageSeed
	o := QuickOptions()
	o.Scale = 1
	o.PhaseIntervals, o.PhaseK = 8, 2
	_, err = buildIntervalProfile(o, rc, kcfg)
	if !errors.Is(err, errIntervalFallback) {
		t.Fatalf("oversized stream err = %v, want errIntervalFallback", err)
	}
	// A group that falls back is not counted as replayed, which is what
	// PhaseNote's fallback footer keys on.
	profiles0, groups0 := IntervalStats()
	if _, err := cachedIntervalProfile(o, rc, kcfg); !errors.Is(err, errIntervalFallback) {
		t.Fatalf("cached oversized stream err = %v, want errIntervalFallback", err)
	}
	if profiles, groups := IntervalStats(); profiles != profiles0 || groups != groups0 {
		t.Fatalf("fallback group counted: %d -> %d passes, %d -> %d groups", profiles0, profiles, groups0, groups)
	}
}
