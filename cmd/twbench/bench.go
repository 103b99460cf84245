package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"tapeworm"
	"tapeworm/internal/cache"
	"tapeworm/internal/core"
	"tapeworm/internal/experiment"
	"tapeworm/internal/kernel"
	"tapeworm/internal/workload"
)

// benchVersion identifies the BENCH_<label>.json schema. Bump it when a
// field changes meaning so downstream tooling can refuse mismatches.
// Version 2 adds the ganged accuracy-sweep suite and allocation counts.
// Version 3 extends hot_loop to every paper workload (with compiled-path
// timings), adds the gang member-count scaling curve, and reports
// per-experiment backing-array pool statistics.
// Version 4 adds the boot_amortization section (boot vs. checkpoint-fork
// timing, forks-per-image counts) and switches pool statistics from
// process-global deltas to per-run tallies, which stay exact at any
// -parallel.
// Version 5 adds the result_cache section (cold vs. warm sweep through
// the content-addressed result cache) and switches the hot-loop and
// boot-amortization sweep timings to best-of-3 with a GC between runs,
// so single-shot scheduling noise can no longer invert a comparison.
// Version 6 adds the interval_sampling section: the same multi-trial
// gang sweep run exhaustively and through representative-interval
// replay, with the worst extrapolation error alongside the speedup.
// Version 7 drops every pool field (experiments[].pool_gets/pool_reuses,
// gang.experiments[].ganged_mallocs_no_pool/pool_gets/pool_reuses) along
// with the backing-array pools they described.
// Version 8 drops boot_amortization's sweep comparison (fresh_seconds,
// forked_seconds, sweep_speedup, images, forks, forks_per_image,
// sweep_experiment) along with the boot checkpoint option it timed; the
// boot-vs-fork microbenchmark stays.
const benchVersion = 8

// benchReport is the machine-readable perf trajectory emitted by
// -bench-json: wall-clock per experiment with the fast path on and off,
// the ganged accuracy-sweep suite against its solo baseline, the gang
// speedup as a function of member count, plus per-workload hot-loop
// measurements in simulated instruction fetches per second.
type benchReport struct {
	Version     int               `json:"version"`
	Label       string            `json:"label"`
	Scale       float64           `json:"scale"`
	Trials      int               `json:"trials"`
	Seed        uint64            `json:"seed"`
	Parallelism int               `json:"parallelism"`
	Experiments []benchExperiment `json:"experiments"`
	Gang        benchGangSuite    `json:"gang"`
	GangScaling benchGangScaling  `json:"gang_scaling"`
	HotLoop     []benchHotLoop    `json:"hot_loop"`

	BootAmortization benchBootAmortization       `json:"boot_amortization"`
	ResultCache      benchResultCache            `json:"result_cache"`
	IntervalSampling experiment.IntervalSampling `json:"interval_sampling"`
}

// benchResultCache measures what the content-addressed result cache buys
// a repeated sweep: the same design-space grid runs cold (every point
// simulated, results completed into the cache) and then warm (every
// point served from the cache). Outputs are byte-identical either way
// (the `make verify-resultcache` gate), so the warm speedup is pure
// avoided re-simulation.
type benchResultCache struct {
	Workload    string  `json:"workload"`
	Configs     int     `json:"configs"`
	ColdSeconds float64 `json:"cold_seconds"`
	WarmSeconds float64 `json:"warm_seconds"`
	WarmSpeedup float64 `json:"warm_speedup"`
	Hits        uint64  `json:"hits"`
	Misses      uint64  `json:"misses"`
	Joins       uint64  `json:"joins"`
}

// benchBootAmortization times a fresh kernel boot against a fork from a
// captured post-boot checkpoint (the BenchmarkBootVsFork numbers). Fork
// starts every representative replay of interval sampling (ForkRun), so
// its cost against a boot is what a fork saves.
type benchBootAmortization struct {
	Frames      int     `json:"frames"`
	BootMicros  float64 `json:"boot_micros"`
	ForkMicros  float64 `json:"fork_micros"`
	ForkSpeedup float64 `json:"fork_speedup"`
}

// benchExperiment times one experiment's full regeneration. Baseline is
// the per-reference path (NoFastPath); the outputs are byte-identical, so
// the ratio is pure execution overhead.
type benchExperiment struct {
	ID              string  `json:"id"`
	FastSeconds     float64 `json:"fast_seconds"`
	BaselineSeconds float64 `json:"baseline_seconds"`
	Speedup         float64 `json:"speedup"`
}

// gangSuiteIDs is the ganged accuracy-sweep suite: the experiments whose
// runs are keyed purely on miss counts, so ganging collapses entire
// sweeps (figure3) or per-trial configuration sets (tables 8 and 9) into
// shared executions. Tables 6, 7 and 10 are gang-eligible but excluded
// here: their jobs differ in simulated components or frame counts, so
// grouping degenerates to gangs of one by design and times nothing.
var gangSuiteIDs = []string{"figure3", "table8", "table9"}

// benchGangSuite compares the ganged accuracy sweeps against their solo
// baselines. Outputs are byte-identical (the `make verify-gang` gate), so
// the speedup is pure execution sharing.
type benchGangSuite struct {
	Experiments        []benchGang `json:"experiments"`
	SoloSecondsTotal   float64     `json:"solo_seconds_total"`
	GangedSecondsTotal float64     `json:"ganged_seconds_total"`
	Speedup            float64     `json:"speedup"`
}

// benchGang times one accuracy-sweep experiment ganged and solo, and
// records the allocator's Mallocs delta for each run.
type benchGang struct {
	ID            string  `json:"id"`
	SoloSeconds   float64 `json:"solo_seconds"`
	GangedSeconds float64 `json:"ganged_seconds"`
	Speedup       float64 `json:"speedup"`
	SoloMallocs   uint64  `json:"solo_mallocs"`
	GangedMallocs uint64  `json:"ganged_mallocs"`
}

// benchGangScaling is the gang speedup as a function of member count:
// for each point, one execution drives N simulated caches and is timed
// against N gang-of-1 executions of the same configurations. Outputs are
// byte-identical (TestGangDemuxByteIdentityWide checks members against
// their gang-of-1 runs), so the ratio is pure execution sharing.
type benchGangScaling struct {
	Workload string           `json:"workload"`
	Points   []benchGangPoint `json:"points"`
}

// benchGangPoint is one member count on the scaling curve.
type benchGangPoint struct {
	Members       int     `json:"members"`
	SoloSeconds   float64 `json:"solo_seconds"`
	GangedSeconds float64 `json:"ganged_seconds"`
	Speedup       float64 `json:"speedup"`
}

// benchHotLoop isolates the simulation core on one uninstrumented
// workload run; refs counts instruction-fetch references. Fast is the
// default configuration (batched fast path, compiled replay); interp
// keeps the fast path but drives the reference interpreter; baseline is
// the per-reference path. Compile time is excluded: the image cache amortizes
// it across every run of a (spec, seed) pair, which is how sweeps use it.
type benchHotLoop struct {
	Workload           string  `json:"workload"`
	Instructions       uint64  `json:"instructions"`
	FastSeconds        float64 `json:"fast_seconds"`
	InterpSeconds      float64 `json:"interp_seconds"`
	BaselineSeconds    float64 `json:"baseline_seconds"`
	FastRefsPerSec     float64 `json:"fast_refs_per_sec"`
	InterpRefsPerSec   float64 `json:"interp_refs_per_sec"`
	BaselineRefsPerSec float64 `json:"baseline_refs_per_sec"`
	Speedup            float64 `json:"speedup"`
}

// writeBenchJSON runs every experiment in ids twice (fast path and
// per-reference baseline), times the hot loop, and writes
// BENCH_<label>.json to the current directory.
func writeBenchJSON(label string, ids []string, opts experiment.Options) error {
	rep := benchReport{
		Version: benchVersion, Label: label,
		Scale: opts.Scale, Trials: opts.Trials, Seed: opts.Seed,
		Parallelism: opts.Parallelism,
	}

	timeOne := func(id string, noFast bool) (float64, error) {
		fn, err := experiment.ByID(id)
		if err != nil {
			return 0, err
		}
		o := opts
		o.Progress = nil
		o.Telemetry = nil
		o.NoFastPath = noFast
		start := time.Now()
		if _, err := fn(o); err != nil {
			return 0, fmt.Errorf("%s: %w", id, err)
		}
		return time.Since(start).Seconds(), nil
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		fast, err := timeOne(id, false)
		if err != nil {
			return err
		}
		base, err := timeOne(id, true)
		if err != nil {
			return err
		}
		rep.Experiments = append(rep.Experiments, benchExperiment{
			ID: id, FastSeconds: fast, BaselineSeconds: base,
			Speedup: base / fast,
		})
		fmt.Fprintf(os.Stderr, "  bench %-9s fast %6.2fs  baseline %6.2fs  speedup %.2fx\n",
			id, fast, base, base/fast)
	}

	gangSuite, err := benchGangSuiteRun(opts)
	if err != nil {
		return err
	}
	rep.Gang = gangSuite

	scaling, err := benchGangScalingRun(opts.Seed)
	if err != nil {
		return err
	}
	rep.GangScaling = scaling

	amort, err := benchBootAmortizationRun(opts)
	if err != nil {
		return err
	}
	rep.BootAmortization = amort

	rc, err := benchResultCacheRun(opts)
	if err != nil {
		return err
	}
	rep.ResultCache = rc

	iv, err := benchIntervalSamplingRun(opts)
	if err != nil {
		return err
	}
	rep.IntervalSampling = iv

	for _, wl := range workload.Names() {
		hot, err := benchHot(wl, opts.Seed)
		if err != nil {
			return err
		}
		rep.HotLoop = append(rep.HotLoop, hot)
		fmt.Fprintf(os.Stderr, "  bench hot-loop %-10s fast %5.2fs  interp %5.2fs  baseline %5.2fs  speedup %5.2fx  (%.0f refs/s fast)\n",
			wl, hot.FastSeconds, hot.InterpSeconds, hot.BaselineSeconds, hot.Speedup, hot.FastRefsPerSec)
	}

	path := fmt.Sprintf("BENCH_%s.json", label)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "twbench: wrote %s\n", path)
	return nil
}

// benchGangSuiteRun times the ganged accuracy-sweep suite: each
// experiment runs solo (NoGang), then ganged.
func benchGangSuiteRun(opts experiment.Options) (benchGangSuite, error) {
	var suite benchGangSuite
	timeRun := func(id string, noGang bool) (seconds float64, mallocs uint64, err error) {
		fn, err := experiment.ByID(id)
		if err != nil {
			return 0, 0, err
		}
		o := opts
		o.Progress = nil
		o.Telemetry = nil
		o.NoGang = noGang
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		if _, err := fn(o); err != nil {
			return 0, 0, fmt.Errorf("%s: %w", id, err)
		}
		seconds = time.Since(start).Seconds()
		runtime.ReadMemStats(&after)
		return seconds, after.Mallocs - before.Mallocs, nil
	}
	for _, id := range gangSuiteIDs {
		solo, soloMallocs, err := timeRun(id, true)
		if err != nil {
			return suite, err
		}
		ganged, gangedMallocs, err := timeRun(id, false)
		if err != nil {
			return suite, err
		}
		suite.Experiments = append(suite.Experiments, benchGang{
			ID: id, SoloSeconds: solo, GangedSeconds: ganged,
			Speedup:     solo / ganged,
			SoloMallocs: soloMallocs, GangedMallocs: gangedMallocs,
		})
		suite.SoloSecondsTotal += solo
		suite.GangedSecondsTotal += ganged
		fmt.Fprintf(os.Stderr, "  bench %-9s solo %6.2fs  ganged %6.2fs  speedup %.2fx  mallocs %d -> %d\n",
			id, solo, ganged, solo/ganged, soloMallocs, gangedMallocs)
	}
	suite.Speedup = suite.SoloSecondsTotal / suite.GangedSecondsTotal
	fmt.Fprintf(os.Stderr, "  bench gang-suite  solo %6.2fs  ganged %6.2fs  speedup %.2fx\n",
		suite.SoloSecondsTotal, suite.GangedSecondsTotal, suite.Speedup)
	return suite, nil
}

// bestOf reruns a timed body n times with a GC before each attempt and
// keeps the fastest: at these sub-second durations a single shot is
// noisy enough for scheduling jitter or a collection pause to invert a
// comparison (a compiled run timing slower than the interpreter it
// beats by construction).
func bestOf(n int, f func() (float64, error)) (float64, error) {
	best := math.Inf(1)
	for i := 0; i < n; i++ {
		runtime.GC()
		s, err := f()
		if err != nil {
			return 0, err
		}
		if s < best {
			best = s
		}
	}
	return best, nil
}

// benchHot times one uninstrumented run of the named workload end to end
// in three configurations: fast (batched fast path, compiled replay),
// interp (fast path, reference interpreter), and baseline (per-reference
// path, reference interpreter). All three are identical simulations (the
// verify-fastpath and verify-compiled invariants), so instructions are
// counted once. Each configuration reports its best of three runs.
func benchHot(wl string, seed uint64) (benchHotLoop, error) {
	const scale = 2000
	run := func(noFast, noCompile bool) (uint64, float64, error) {
		cfg := tapeworm.SystemConfig{Seed: seed, Machine: tapeworm.DECstation(4096)}
		cfg.Machine.NoFastPath = noFast
		sys, err := tapeworm.NewSystem(cfg)
		if err != nil {
			return 0, 0, err
		}
		spec, err := workload.ByName(wl, scale)
		if err != nil {
			return 0, 0, err
		}
		var prog kernel.Program
		if noCompile {
			prog, err = workload.NewReference(spec, seed)
		} else {
			prog, err = workload.NewPlanned(spec, seed)
		}
		if err != nil {
			return 0, 0, err
		}
		sys.SpawnProgram(spec.Name, prog, false, false)
		start := time.Now()
		if err := sys.Run(0); err != nil {
			return 0, 0, err
		}
		return sys.Monitor().Instructions, time.Since(start).Seconds(), nil
	}
	timed := func(noFast, noCompile bool) (instr uint64, seconds float64, err error) {
		seconds, err = bestOf(3, func() (float64, error) {
			in, s, err := run(noFast, noCompile)
			instr = in // deterministic: identical on every attempt
			return s, err
		})
		return instr, seconds, err
	}
	instr, fast, err := timed(false, false)
	if err != nil {
		return benchHotLoop{}, err
	}
	interpInstr, interp, err := timed(false, true)
	if err != nil {
		return benchHotLoop{}, err
	}
	baseInstr, base, err := timed(true, true)
	if err != nil {
		return benchHotLoop{}, err
	}
	if baseInstr != instr || interpInstr != instr {
		return benchHotLoop{}, fmt.Errorf(
			"bench: %s runs diverged: %d/%d/%d instructions", wl, instr, interpInstr, baseInstr)
	}
	return benchHotLoop{
		Workload: wl, Instructions: instr,
		FastSeconds: fast, InterpSeconds: interp, BaselineSeconds: base,
		FastRefsPerSec:     float64(instr) / fast,
		InterpRefsPerSec:   float64(instr) / interp,
		BaselineRefsPerSec: float64(instr) / base,
		Speedup:            base / fast,
	}, nil
}

// benchBootAmortizationRun times boot against checkpoint fork, isolating
// kernel setup: fresh boots against forks from one captured checkpoint.
func benchBootAmortizationRun(opts experiment.Options) (benchBootAmortization, error) {
	// 8192 frames is the evaluation default (and BenchmarkBootVsFork's
	// geometry); the boot-side frame shuffle scales with frames while the
	// fork cost is flat, so the ratio is only meaningful at the frame
	// count the evaluation actually boots.
	out := benchBootAmortization{Frames: 8192}

	kcfg := kernel.DefaultConfig(tapeworm.DECstation(out.Frames), opts.Seed)
	const iters = 2000
	start := time.Now()
	for i := 0; i < iters; i++ {
		kernel.MustBoot(kcfg)
	}
	out.BootMicros = time.Since(start).Seconds() / iters * 1e6

	cp, err := kernel.Capture(kernel.MustBoot(kcfg), "bench")
	if err != nil {
		return out, err
	}
	start = time.Now()
	for i := 0; i < iters; i++ {
		if _, err := kernel.Fork(cp, kcfg); err != nil {
			return out, err
		}
	}
	out.ForkMicros = time.Since(start).Seconds() / iters * 1e6
	out.ForkSpeedup = out.BootMicros / out.ForkMicros

	fmt.Fprintf(os.Stderr, "  bench boot-amortization  boot %.1fµs  fork %.1fµs  speedup %.2fx\n",
		out.BootMicros, out.ForkMicros, out.ForkSpeedup)
	return out, nil
}

// benchResultCacheRun runs the twsweep design-space grid twice through
// the content-addressed result cache: cold (every point simulated and
// completed into the store) and warm (every point served back without
// simulating). The tables must render identically; the warm wall clock
// is table assembly plus store lookups, so the speedup is the cost of
// the avoided simulations.
func benchResultCacheRun(opts experiment.Options) (benchResultCache, error) {
	sc := experiment.SweepConfig{
		Workload: "eqntott",
		Sizes:    []int{1 << 10, 4 << 10, 16 << 10},
		Assocs:   []int{1, 2, 4},
		Lines:    []int{16, 32},
	}
	out := benchResultCache{Workload: sc.Workload, Configs: sc.Points()}
	o := opts
	o.Progress = nil
	o.Telemetry = nil
	o.ResultCache = true
	experiment.ResetResultCache()
	start := time.Now()
	cold, err := experiment.Sweep(o, sc)
	if err != nil {
		return out, err
	}
	out.ColdSeconds = time.Since(start).Seconds()
	start = time.Now()
	warm, err := experiment.Sweep(o, sc)
	if err != nil {
		return out, err
	}
	out.WarmSeconds = time.Since(start).Seconds()
	if cold.Render() != warm.Render() {
		return out, fmt.Errorf("bench: warm result-cache sweep diverged from cold")
	}
	st := experiment.ResultCacheStats()
	out.WarmSpeedup = out.ColdSeconds / out.WarmSeconds
	out.Hits, out.Misses, out.Joins = st.Hits, st.Misses, st.Joins
	fmt.Fprintf(os.Stderr, "  bench result-cache %-9s cold %6.2fs  warm %6.4fs  speedup %.0fx  (%d hits / %d misses)\n",
		sc.Workload, out.ColdSeconds, out.WarmSeconds, out.WarmSpeedup, out.Hits, out.Misses)
	return out, nil
}

// The interval-sampling acceptance gates: representative-interval replay
// must finish the pinned sweep at least 5× faster than exhaustive replay
// while every extrapolated miss ratio stays within two percentage points
// of exact. CI enforces the same bounds on the bench JSON's
// interval_sampling section; `twbench -verify-intervals` (the
// `make verify-intervals` accuracy leg) enforces them locally.
const (
	intervalGateSpeedup = 5.0
	intervalGateError   = 0.02
)

// verifyIntervalGates runs the interval-sampling measurement alone and
// errors unless both gates hold.
func verifyIntervalGates(opts experiment.Options) error {
	iv, err := benchIntervalSamplingRun(opts)
	if err != nil {
		return err
	}
	if iv.Speedup < intervalGateSpeedup {
		return fmt.Errorf("verify-intervals: speedup %.2fx below the %.0fx gate", iv.Speedup, intervalGateSpeedup)
	}
	if iv.MaxMissRatioError > intervalGateError {
		return fmt.Errorf("verify-intervals: max miss-ratio error %.4f above the %.2f gate", iv.MaxMissRatioError, intervalGateError)
	}
	fmt.Printf("verify-intervals: %s speedup %.2fx (gate %.0fx), max miss-ratio error %.4f (gate %.2f)\n",
		iv.Workload, iv.Speedup, intervalGateSpeedup, iv.MaxMissRatioError, intervalGateError)
	return nil
}

// benchIntervalSamplingRun measures what representative-interval replay
// buys a multi-trial cache sweep: the same 35-member gang grid runs
// exhaustively and through phase-detected interval replay, and the
// section records both wall clocks plus the worst extrapolation error.
// The geometry is pinned rather than inherited from the command line so
// `twbench -bench-json <label>` gates one stable measurement:
//
//   - scale 125 / 3 trials makes the sweep long enough that the sampled
//     side's fixed costs (phase analysis, per-trial profiling pass,
//     per-representative forks) amortize the way a real sweep amortizes
//     them, while the one-time analysis is shared across trials via the
//     plan cache;
//   - 128 intervals / k=2 / 3000-instruction warm-up is the evaluation
//     operating point: enough intervals that each representative's
//     weight is well resolved, and enough warm-up that the fork's cold
//     simulated cache converges before the measured window opens (the
//     sweep's small capacity-dominated caches are chosen for exactly
//     that convergence — see MeasureIntervalSampling).
//
// The CI gate requires speedup ≥ 5 and max_miss_ratio_error ≤ 0.02.
func benchIntervalSamplingRun(opts experiment.Options) (experiment.IntervalSampling, error) {
	const wl = "mpeg_play"
	o := opts
	o.Progress = nil
	o.Telemetry = nil
	o.Scale = 125
	o.Trials = 3
	o.PhaseIntervals = 128
	o.PhaseK = 2
	o.PhaseWarmup = 3000
	out, err := experiment.MeasureIntervalSampling(o, wl)
	if err != nil {
		return out, err
	}
	fmt.Fprintf(os.Stderr, "  bench interval-sampling %-9s exhaustive %6.2fs  sampled %6.2fs  speedup %.2fx  (max miss-ratio err %.4f)\n",
		out.Workload, out.ExhaustiveSeconds, out.SampledSeconds, out.Speedup, out.MaxMissRatioError)
	return out, nil
}

// scalingConfigs builds n distinct cache configurations for the gang
// scaling curve, cycling sizes, line widths, associativities and
// indexing so the gang simulates a genuine design-space sweep.
func scalingConfigs(n int) []core.Config {
	cfgs := make([]core.Config, n)
	for i := range cfgs {
		idx := cache.PhysIndexed
		if i%2 == 1 {
			idx = cache.VirtIndexed
		}
		cfgs[i] = core.Config{
			Mode: core.ModeICache,
			Cache: cache.Config{
				Size:     4 << (10 + i%4),
				LineSize: 16 << (i % 2),
				Assoc:    1 << (i % 3),
				Indexing: idx,
			},
			Sampling: core.FullSampling(),
		}
	}
	return cfgs
}

// benchGangScalingRun measures the gang speedup curve: for each member
// count N, one execution driving all N simulators is timed against N
// separate gang-of-1 executions of the same configurations.
func benchGangScalingRun(seed uint64) (benchGangScaling, error) {
	const wl, scale = "eqntott", 2000
	out := benchGangScaling{Workload: wl}
	runOnce := func(cfgs []core.Config) (float64, error) {
		cfg := tapeworm.SystemConfig{Seed: seed, Machine: tapeworm.DECstation(4096)}
		sys, err := tapeworm.NewSystem(cfg)
		if err != nil {
			return 0, err
		}
		if _, err := core.AttachGang(sys.Kernel(), cfgs); err != nil {
			return 0, err
		}
		if _, err := sys.LoadWorkload(wl, scale, seed, true); err != nil {
			return 0, err
		}
		start := time.Now()
		if err := sys.Run(0); err != nil {
			return 0, err
		}
		return time.Since(start).Seconds(), nil
	}
	for _, n := range []int{2, 4, 8, 16, 32} {
		cfgs := scalingConfigs(n)
		ganged, err := runOnce(cfgs)
		if err != nil {
			return out, err
		}
		var solo float64
		for i := range cfgs {
			s, err := runOnce(cfgs[i : i+1])
			if err != nil {
				return out, err
			}
			solo += s
		}
		out.Points = append(out.Points, benchGangPoint{
			Members: n, SoloSeconds: solo, GangedSeconds: ganged,
			Speedup: solo / ganged,
		})
		fmt.Fprintf(os.Stderr, "  bench gang-scaling N=%-2d  solo %6.2fs  ganged %6.2fs  speedup %.2fx\n",
			n, solo, ganged, solo/ganged)
	}
	return out, nil
}
