package experiment

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"tapeworm/internal/cache"
	"tapeworm/internal/core"
	"tapeworm/internal/kernel"
	"tapeworm/internal/mach"
	"tapeworm/internal/workload"
)

// Interval tests run at their own seeds so the process-wide plan and
// profile caches never alias entries across tests.

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

// TestIntervalReplayErrorBound: a gang-heavy experiment rendered through
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
	// This budget is looser than TestIntervalPinnedErrorBound's: test
	// workloads are tiny, so each representative stands for few
	// instructions and sampling noise is proportionally larger.
	if rel > 0.10 {
		t.Fatalf("interval replay error %.3f exceeds 10%% at test scale:\n--- exhaustive ---\n%s\n--- sampled ---\n%s",
			rel, exhaustive.Render(), sampled.Render())
	}
}

// TestIntervalPinnedErrorBound is the interval path's accuracy gate. Each
// workload that samples at scale 125 runs one pinned cache sweep as a
// gang, exhaustively and through representative-interval replay (128
// intervals, 2 phases, 3000 instructions of warm-up). The sweep is 35
// capacity-dominated geometries: 256 B–1 KB, associativity 1–8, 16–64 B
// lines, invalid combinations skipped. Every member's extrapolated miss
// ratio must lie within 0.02 of exact, in the absolute terms of the
// paper's accuracy tables (misses over machine instructions). A group
// that falls back to exhaustive replay fails, since its error would be
// zero by construction. xlisp, eqntott and jpeg_play exceed the compile
// budget at this scale and always fall back, so they are not listed.
func TestIntervalPinnedErrorBound(t *testing.T) {
	const bound = 0.02
	// Longest first, so the parallel subtests finish close together.
	for _, name := range []string{"mpeg_play", "espresso", "sdet", "ousterhout", "kenbus"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			// Every interval cache key holds the spec, so scale 125 keeps
			// these entries apart from the other tests'.
			o := Options{Scale: 125, Seed: 1994, Trials: 1, Frames: 8192,
				PhaseIntervals: 128, PhaseK: 2, PhaseWarmup: 3000}
			spec, err := mustSpec(o, name)
			if err != nil {
				t.Fatal(err)
			}
			var rcs []runConfig
			for _, assoc := range []int{1, 2, 4, 8} {
				for _, line := range []int{16, 32, 64} {
					for _, size := range []int{256, 512, 1 << 10} {
						cfg := dmICache(size, cache.PhysIndexed, core.FullSampling())
						cfg.Cache.Assoc, cfg.Cache.LineSize = assoc, line
						if cfg.Cache.Validate() != nil {
							continue // e.g. 8 ways of 64 B in a 256 B cache
						}
						rcs = append(rcs, runConfig{spec: spec, seed: o.Seed, pageSeed: o.Seed,
							frames: o.Frames, tw: cfg, simUser: true, gang: true})
					}
				}
			}
			if len(rcs) != 35 {
				t.Fatalf("pinned sweep has %d geometries, want 35", len(rcs))
			}
			exact, err := runGang(rcs)
			if err != nil {
				t.Fatal(err)
			}
			sampled, err := runGangIntervals(o, rcs)
			if errors.Is(err, errIntervalFallback) {
				t.Fatalf("%s fell back to exhaustive replay at scale %g: %v", name, o.Scale, err)
			}
			if err != nil {
				t.Fatal(err)
			}
			worst := 0.0
			for i := range rcs {
				e := math.Abs(sampled[i].TwEst-exact[i].TwEst) / float64(exact[i].Snap.Instructions)
				worst = math.Max(worst, e)
			}
			t.Logf("%s: worst miss-ratio error %.4f over %d members", name, worst, len(rcs))
			if worst > bound {
				t.Errorf("%s: worst extrapolated miss-ratio error %.4f exceeds %.2f", name, worst, bound)
			}
		})
	}
}

// TestIntervalGeometryRoundTrip: Figure 3 rendered under phase geometry
// A, then B, then A again renders the same table both times under A. A
// profile and its checkpoints are keyed by the whole geometry, so B's
// pass can neither evict nor replace A's capture points.
func TestIntervalGeometryRoundTrip(t *testing.T) {
	a := phaseOptions(1, 3034)
	b := a
	b.PhaseIntervals, b.PhaseK = 6, 3
	var renders []string
	for _, o := range []Options{a, b, a} {
		tab, err := Figure3(o)
		if err != nil {
			t.Fatal(err)
		}
		renders = append(renders, tab.Render())
	}
	if renders[2] != renders[0] {
		t.Fatalf("geometry A rendered differently after B:\n--- first ---\n%s\n--- third ---\n%s", renders[0], renders[2])
	}
}

// TestIntervalCheckpointCacheBound: the profile cache holds at most
// maxCachedCheckpoints checkpoints across its profiles, however many
// representatives a sweep captures.
func TestIntervalCheckpointCacheBound(t *testing.T) {
	o := phaseOptions(1, 3035)
	o.PhaseIntervals = 12
	o.PhaseK = 6
	if _, err := Figure3(o); err != nil {
		t.Fatal(err)
	}
	if n := profileCache.Stats().Cost; n > maxCachedCheckpoints {
		t.Fatalf("%d interval checkpoints cached, bound is %d", n, maxCachedCheckpoints)
	}
}

// TestIntervalManyRepresentatives: a plan with more representatives than
// the profile cache's checkpoint budget still replays, from one profiling
// pass that captures one checkpoint per representative.
func TestIntervalManyRepresentatives(t *testing.T) {
	ResetIntervalProfiles()
	o := Options{Scale: 2000, Seed: 3041, Trials: 1, Frames: 4096, Parallelism: 1,
		PhaseIntervals: 64, PhaseK: 20, PhaseWarmup: 500}
	sc := SweepConfig{Workload: "mpeg_play", Sizes: []int{1 << 10, 4 << 10}, Assocs: []int{1, 2}, Lines: []int{16}}
	if _, err := Sweep(o, sc); err != nil {
		t.Fatal(err)
	}
	spec, err := mustSpec(o, "mpeg_play")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := cachedPlan(o, runConfig{spec: spec, seed: o.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Reps) <= maxCachedCheckpoints {
		t.Fatalf("plan has %d representatives; the test needs more than %d", len(plan.Reps), maxCachedCheckpoints)
	}
	profiles, groups := IntervalStats()
	images, forks, _ := CheckpointStats()
	if profiles != 1 || groups != 1 || images != uint64(len(plan.Reps)) || forks != images {
		t.Fatalf("%d profiling passes, %d groups, %d checkpoints, %d forks; want 1, 1, %d, %d",
			profiles, groups, images, forks, len(plan.Reps), len(plan.Reps))
	}
}

// TestIntervalConcurrentWarmups: two sweeps of one workload identity
// with different warm-ups, run at once in one process, each render
// byte-identical to their own serial render.
func TestIntervalConcurrentWarmups(t *testing.T) {
	sc := SweepConfig{Workload: "mpeg_play", Sizes: []int{1 << 10, 4 << 10}, Assocs: []int{1, 2}, Lines: []int{16}}
	var opts [2]Options
	var serial [2]string
	for i, warmup := range []int{500, 1000} {
		opts[i] = Options{Scale: 2000, Seed: 3042, Trials: 1, Frames: 4096, Parallelism: 1,
			PhaseIntervals: 32, PhaseK: 4, PhaseWarmup: warmup}
		tab, err := Sweep(opts[i], sc)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = tab.Render()
	}
	ResetIntervalProfiles()
	var concurrent [2]string
	var errs [2]error
	var wg sync.WaitGroup
	for i := range opts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tab, err := Sweep(opts[i], sc)
			if err == nil {
				concurrent[i] = tab.Render()
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i := range opts {
		if errs[i] != nil {
			t.Fatalf("warm-up %d: %v", opts[i].PhaseWarmup, errs[i])
		}
		if concurrent[i] != serial[i] {
			t.Errorf("warm-up %d rendered differently beside another sweep:\n--- serial ---\n%s\n--- concurrent ---\n%s",
				opts[i].PhaseWarmup, serial[i], concurrent[i])
		}
	}
}

// TestIntervalWarmupCapture: each representative's checkpoint sits at
// its warm-up start, rep.Start - PhaseWarmup user instructions, give or
// take the one compiled run RunUntilUser may overshoot by. The profiling
// pass only runs forward, so a representative whose warm-up start falls
// before the previous representative's end is captured later and is
// skipped here.
func TestIntervalWarmupCapture(t *testing.T) {
	const warmup = 2000
	o := Options{Scale: 2000, Seed: 3043, Trials: 1, Frames: 4096,
		PhaseIntervals: 32, PhaseK: 3, PhaseWarmup: warmup}
	checked, total := 0, 0
	for _, name := range workload.Names() {
		spec, err := mustSpec(o, name)
		if err != nil {
			t.Fatal(err)
		}
		rc := runConfig{spec: spec, seed: o.Seed, pageSeed: o.Seed, frames: o.Frames}
		kcfg := kernel.DefaultConfig(mach.DECstation5000_200(o.Frames), rc.seed)
		kcfg.PageSeed = rc.pageSeed
		p, err := buildIntervalProfile(o, rc, kcfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		total += len(p.plan.Reps)
		prevEnd := int64(0)
		for i, rep := range p.plan.Reps {
			if start := int64(rep.Start) - warmup; start >= prevEnd {
				checked++
				got := int64(p.marks[i].cp.UserInstructions())
				if got < start || got >= start+kernel.CompiledRunCap {
					t.Errorf("%s representative %d: checkpoint at %d user instructions, want [%d, %d)",
						name, i, got, start, start+kernel.CompiledRunCap)
				}
			}
			prevEnd = int64(rep.End)
		}
	}
	t.Logf("%d of %d representatives checked", checked, total)
	if 2*checked < total {
		t.Fatalf("only %d of %d representatives had a checkable warm-up", checked, total)
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
