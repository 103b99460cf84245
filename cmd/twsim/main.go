// Command twsim runs one Tapeworm simulation: pick a workload, a machine,
// a simulated cache or TLB, sampling, and which components to include,
// then report misses, miss ratios and slowdown.
//
// Examples:
//
//	twsim -workload mpeg_play -size 16K -assoc 1 -line 16
//	twsim -workload sdet -size 4K -kernel -servers
//	twsim -workload ousterhout -mode tlb -tlb-entries 64
//	twsim -workload espresso -size 1K -sample 1/8 -indexing virtual
//	twsim -workload espresso -warmup 100000 -measure 500000
//	twsim -workload sdet -result-cache -result-cache-dir /tmp/rc
//
// The uninstrumented baseline and the instrumented run are independent
// simulations (each boots its own kernel), so by default they execute
// concurrently on the run scheduler; -parallel 1 forces the serial
// order. Either way the reported numbers are identical: each run's
// results depend only on its own seeds.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"tapeworm"
	"tapeworm/internal/core"
	"tapeworm/internal/experiment"
	"tapeworm/internal/kernel"
	"tapeworm/internal/mem"
	"tapeworm/internal/resultcache"
	"tapeworm/internal/sched"
	"tapeworm/internal/telemetry"
	"tapeworm/internal/workload"
)

// maxCachedResults bounds the in-process tier; twsim runs at most two
// simulations per invocation, so the store exists for its disk tier.
const maxCachedResults = 16

// runDigest is the content address of one twsim run: the physics version
// and every input that can steer its event stream. sim is empty for the
// uninstrumented baseline; an instrumented run passes its simulator
// configuration and the components it simulates.
func runDigest(machine string, frames int, spec workload.Spec,
	seed, pageSeed uint64, sim ...any) resultcache.Digest {
	id := []any{"twsim.run/v3", core.PhysicsVersion, machine, frames, spec, seed, pageSeed}
	return resultcache.DigestOf(append(id, sim...)...)
}

// cachedSim serves the run from the result cache when one is attached,
// simulating only on a miss; with no store it degenerates to sim().
func cachedSim(store *resultcache.Store[experiment.SingleResult], dir string,
	d resultcache.Digest, sim func() (experiment.SingleResult, error)) (experiment.SingleResult, error) {
	if store == nil {
		return sim()
	}
	return store.Get(d, dir, sim)
}

func main() {
	var (
		wl       = flag.String("workload", "mpeg_play", "workload name (see -list)")
		list     = flag.Bool("list", false, "list workloads and exit")
		scale    = flag.Float64("scale", 400, "workload scale divisor")
		seed     = flag.Uint64("seed", 1, "workload/kernel seed")
		pageSeed = flag.Uint64("pageseed", 1, "frame allocator seed")
		machine  = flag.String("machine", "decstation", "machine model: decstation, 486, wwt")
		frames   = flag.Int("frames", 8192, "physical memory frames")

		mode       = flag.String("mode", "icache", "simulation mode: icache, dcache, unified, tlb")
		size       = flag.String("size", "16K", "cache size (e.g. 4K, 64K, 1M)")
		line       = flag.Int("line", 16, "cache line size in bytes")
		assoc      = flag.Int("assoc", 1, "associativity (0 = fully associative)")
		indexing   = flag.String("indexing", "physical", "cache indexing: physical, virtual")
		replace    = flag.String("replace", "lru", "replacement: lru, fifo, random")
		sample     = flag.String("sample", "1/1", "set sampling fraction, e.g. 1/8")
		tlbEntries = flag.Int("tlb-entries", 64, "TLB entries (tlb mode)")
		handler    = flag.String("handler", "optimized", "handler model: optimized, c, hw")

		simServers = flag.Bool("servers", false, "also simulate the X/BSD servers")
		simKernel  = flag.Bool("kernel", false, "also simulate the OS kernel")
		baseline   = flag.Bool("baseline", true, "also run uninstrumented for slowdown")
		parallel   = flag.Int("parallel", 0, "worker pool size for the baseline/instrumented runs (0 = GOMAXPROCS, 1 = serial)")

		resultCache    = flag.Bool("result-cache", false, "serve a previously simulated identical run from the content-addressed result cache (results are byte-identical either way)")
		resultCacheDir = flag.String("result-cache-dir", "", "persist results to this directory and reload them across invocations (requires -result-cache)")
		warmup         = flag.Uint64("warmup", 0, "retired instructions of warm-up before misses count")
		measure        = flag.Uint64("measure", 0, "retired instructions in the measurement interval (0 = to end of run)")

		phaseIntervals = flag.Int("phase-intervals", 0, "slice the workload into this many intervals and simulate one representative per phase (0 = exhaustive; results are extrapolated and error-bound-gated, not exact)")
		phaseK         = flag.Int("phase-k", 0, "number of behavioral phases (k-means clusters); requires -phase-intervals")
		phaseWarmup    = flag.Int("phase-warmup", 0, "instructions of simulator warm-up replayed ahead of each representative window; requires -phase-intervals")

		metricsPath = flag.String("metrics", "", "write a JSON metrics report to this file")
		tracePath   = flag.String("trace", "", "write a JSONL trap-event trace to this file")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	if *list {
		for _, s := range tapeworm.Workloads(workload.DefaultScale) {
			fmt.Printf("%-11s %s\n", s.Name, s.Description)
		}
		return
	}

	check(validateRunFlags(*parallel, *frames, *scale))
	check(validateResultCacheFlags(*resultCache, *resultCacheDir))
	check(validatePhaseFlags(*phaseIntervals, *phaseK, *phaseWarmup, *machine,
		*metricsPath != "" || *tracePath != "" || *debugAddr != "", *warmup, *measure))
	cfg, err := simConfig(*mode, *size, *line, *assoc, *indexing, *replace,
		*sample, *tlbEntries, *handler)
	check(err)
	cfg.Window = tapeworm.Window{WarmupInstr: *warmup, MeasureInstr: *measure}
	check(cfg.Window.Validate())

	var coll *telemetry.Collector
	var traceFile *os.File
	if *metricsPath != "" || *tracePath != "" || *debugAddr != "" {
		tcfg := telemetry.Config{}
		if *tracePath != "" {
			traceFile, err = os.Create(*tracePath)
			check(err)
			tcfg.Trace = traceFile
		}
		coll = telemetry.New(tcfg)
		coll.SetScope("twsim")
	}
	if *debugAddr != "" {
		bound, err := telemetry.ServeDebug(*debugAddr, coll)
		check(err)
		fmt.Fprintf(os.Stderr, "twsim: debug server on http://%s/debug/pprof/\n", bound)
	}

	var mc tapeworm.MachineConfig
	switch *machine {
	case "decstation":
		mc = tapeworm.DECstation(*frames)
	case "486":
		mc = tapeworm.Gateway486(*frames)
	case "wwt":
		mc = tapeworm.WWTNode(*frames)
	default:
		check(fmt.Errorf("unknown machine %q", *machine))
	}

	// Jobs return plain result values — not live systems — so a cached
	// run can print exactly what a fresh simulation would without ever
	// booting a machine.
	var store *resultcache.Store[experiment.SingleResult]
	if *resultCache {
		if coll != nil {
			fmt.Fprintln(os.Stderr, "twsim: note: -result-cache is bypassed while telemetry is on (cache hits simulate nothing, so they emit no events)")
		} else {
			store = resultcache.New[experiment.SingleResult](maxCachedResults)
		}
	}
	spec, err := workload.ByName(*wl, *scale)
	check(err)

	// The baseline and instrumented simulations share nothing — each
	// boots a private kernel and machine — so run them as one scheduler
	// batch; index 0 is the baseline, index 1 the instrumented system.
	var jobs []sched.Job[experiment.SingleResult]
	var tels []*telemetry.Run
	if *baseline {
		tels = append(tels, nil)
		i := len(tels) - 1
		d := runDigest(mc.Name, *frames, spec, *seed, *pageSeed)
		jobs = append(jobs, func() (experiment.SingleResult, error) {
			return cachedSim(store, *resultCacheDir, d, func() (experiment.SingleResult, error) {
				tel := coll.StartRun("baseline")
				tels[i] = tel
				sys, err := tapeworm.NewSystem(tapeworm.SystemConfig{
					Machine: mc, Seed: *seed, PageSeed: *pageSeed, Telemetry: tel})
				if err != nil {
					return experiment.SingleResult{}, err
				}
				if _, err := sys.LoadWorkload(*wl, *scale, *seed, false); err != nil {
					return experiment.SingleResult{}, err
				}
				err = sys.Run(0)
				sys.Kernel().ReportTelemetry()
				return experiment.SingleResult{Snap: sys.Monitor()}, err
			})
		})
	}
	// Interval replay lives in the experiment layer; with -phase-intervals
	// set, the instrumented run delegates to it (RunSingle) instead of
	// simulating exhaustively here. The baseline stays a full
	// uninstrumented run — it is the slowdown denominator, and it costs no
	// more than the interval path's own profiling pass.
	var phaseOpts experiment.Options
	if *phaseIntervals > 0 {
		phaseOpts = experiment.Options{
			Scale: *scale, Seed: *seed, Trials: 1, Frames: *frames,
			ResultCache: store != nil, ResultCacheDir: *resultCacheDir,
			PhaseIntervals: *phaseIntervals, PhaseK: *phaseK, PhaseWarmup: *phaseWarmup,
		}
		check(phaseOpts.Validate())
		tels = append(tels, nil)
		jobs = append(jobs, func() (experiment.SingleResult, error) {
			return experiment.RunSingle(phaseOpts, *wl, *pageSeed, cfg, *simServers, *simKernel)
		})
	} else {
		jobs = append(jobs, instrumentedJob(&tels, coll, store, spec, mc, cfg,
			*wl, *scale, *seed, *pageSeed, *frames, *resultCacheDir,
			*simServers, *simKernel))
	}
	outs, err := sched.Run(*parallel, jobs, nil)
	check(err)
	// Commit in submission order so the metrics report and trace stream
	// are deterministic at any -parallel value.
	for _, tel := range tels {
		coll.Commit(tel)
	}

	var normal tapeworm.Snapshot
	if *baseline {
		normal = outs[0].Snap
	}
	res := outs[len(outs)-1]
	snap, st := res.Snap, res.Stats
	fmt.Printf("workload:   %s (scale 1/%.0f) on %s\n", *wl, *scale, mc.Name)
	fmt.Printf("mechanism:  %s\n", res.Mech)
	fmt.Printf("instrs:     %d (%.3f simulated seconds)\n", snap.Instructions, res.Seconds)
	fmt.Printf("misses:     %d counted", st.Misses)
	if res.Est != float64(st.Misses) {
		fmt.Printf(", %.0f estimated (%s sampling)", res.Est, cfg.Sampling)
	}
	fmt.Println()
	fmt.Printf("            user %d / servers %d / kernel %d\n",
		res.Comp[kernel.CompUser], res.Comp[kernel.CompServer], res.Comp[kernel.CompKernel])
	fmt.Printf("miss ratio: %.4f per instruction\n",
		float64(st.Misses)/float64(snap.Instructions))
	fmt.Printf("overhead:   %d handler cycles, %d setup cycles\n",
		st.HandlerCycles, st.SetupCycles)
	if *baseline {
		fmt.Printf("slowdown:   %.2fx over uninstrumented run\n",
			tapeworm.Slowdown(snap, normal))
	}
	if note := experiment.PhaseNote(phaseOpts, []workload.Spec{spec}); note != "" {
		fmt.Printf("note:       %s\n", note)
	}

	if *metricsPath != "" {
		f, err := os.Create(*metricsPath)
		check(err)
		check(coll.WriteMetrics(f))
		check(f.Close())
	}
	if traceFile != nil {
		check(coll.Err())
		check(traceFile.Close())
	}
}

// instrumentedJob builds the exhaustive instrumented run: a fresh
// system, the simulator attached, the full workload executed. It
// registers a telemetry slot in tels and fills it when the job runs.
func instrumentedJob(tels *[]*telemetry.Run, coll *telemetry.Collector,
	store *resultcache.Store[experiment.SingleResult], spec workload.Spec, mc tapeworm.MachineConfig,
	cfg tapeworm.SimConfig, wl string, scale float64, seed, pageSeed uint64,
	frames int, resultCacheDir string, simServers, simKernel bool) sched.Job[experiment.SingleResult] {
	*tels = append(*tels, nil)
	instIdx := len(*tels) - 1
	instDigest := runDigest(mc.Name, frames, spec, seed, pageSeed, cfg, simServers, simKernel)
	return func() (experiment.SingleResult, error) {
		return cachedSim(store, resultCacheDir, instDigest, func() (experiment.SingleResult, error) {
			tel := coll.StartRun("instrumented")
			(*tels)[instIdx] = tel
			sys, err := tapeworm.NewSystem(tapeworm.SystemConfig{
				Machine: mc, Seed: seed, PageSeed: pageSeed, Telemetry: tel})
			if err != nil {
				return experiment.SingleResult{}, err
			}
			tw, err := sys.AttachTapeworm(cfg)
			if err != nil {
				return experiment.SingleResult{}, err
			}
			if _, err := sys.LoadWorkload(wl, scale, seed, true); err != nil {
				return experiment.SingleResult{}, err
			}
			if simServers {
				for _, kind := range []kernel.ServerKind{kernel.BSDServer, kernel.XServer} {
					if t := sys.Kernel().Server(kind); t != nil {
						if err := tw.Attributes(t.ID, true, false); err != nil {
							return experiment.SingleResult{}, err
						}
					}
				}
			}
			if simKernel {
				if err := tw.Attributes(mem.KernelTask, true, false); err != nil {
					return experiment.SingleResult{}, err
				}
			}
			err = sys.Run(0)
			sys.Kernel().ReportTelemetry()
			tw.ReportTelemetry()
			return experiment.SingleResult{
				Snap:    sys.Monitor(),
				Seconds: sys.Seconds(),
				Mech:    tw.MechanismName(),
				Stats:   tw.Stats(),
				Comp:    tw.MissesByComponent(),
				Est:     tw.EstimatedMisses(),
			}, err
		})
	}
}

// validatePhaseFlags rejects -phase-* combinations up front, mirroring
// the other flag validators: boundary errors (negative values, a zero
// phase count, more phases than intervals) and combinations the interval
// engine does not serve (non-DECstation machines, telemetry's per-trap
// event stream, an explicit -warmup/-measure window, which interval
// replay would silently override with each representative's own window).
func validatePhaseFlags(intervals, k, warmup int, machine string,
	telemetry bool, warmupInstr, measureInstr uint64) error {
	if intervals < 0 {
		return fmt.Errorf("-phase-intervals must be non-negative, got %d", intervals)
	}
	if k < 0 {
		return fmt.Errorf("-phase-k must be non-negative, got %d", k)
	}
	if warmup < 0 {
		return fmt.Errorf("-phase-warmup must be non-negative, got %d", warmup)
	}
	if intervals == 0 {
		if k != 0 {
			return fmt.Errorf("-phase-k %d requires -phase-intervals", k)
		}
		if warmup != 0 {
			return fmt.Errorf("-phase-warmup %d requires -phase-intervals", warmup)
		}
		return nil
	}
	if k < 1 {
		return fmt.Errorf("-phase-intervals %d requires -phase-k of at least 1", intervals)
	}
	if k > intervals {
		return fmt.Errorf("-phase-k %d exceeds -phase-intervals %d", k, intervals)
	}
	if machine != "decstation" {
		return fmt.Errorf("-phase-intervals supports only -machine decstation (the experiment layer's machine model), got %q", machine)
	}
	if telemetry {
		return fmt.Errorf("-phase-intervals is incompatible with -metrics/-trace/-debug-addr: interval replay simulates only representative windows, so it cannot emit the full per-trap event stream")
	}
	if warmupInstr != 0 || measureInstr != 0 {
		return fmt.Errorf("-phase-intervals replaces the measurement window per representative; drop -warmup/-measure (use -phase-warmup)")
	}
	return nil
}

// validateRunFlags rejects flag values that would otherwise panic deep
// inside a run or be silently reinterpreted (negative -parallel means
// GOMAXPROCS to the scheduler).
func validateRunFlags(parallel, frames int, scale float64) error {
	if parallel < 0 {
		return fmt.Errorf("-parallel must be non-negative, got %d", parallel)
	}
	if err := mem.CheckPhysSize(frames, 4096); err != nil {
		return fmt.Errorf("-frames invalid: %w", err)
	}
	if err := workload.CheckScale(scale); err != nil {
		return fmt.Errorf("-scale invalid: %w", err)
	}
	return nil
}

// validateResultCacheFlags rejects result-cache flag combinations that
// would otherwise fail deep inside the first run: a persist directory
// without the feature enabled, or one resultcache.CheckDir refuses.
func validateResultCacheFlags(resultCache bool, dir string) error {
	if dir == "" {
		return nil
	}
	if !resultCache {
		return fmt.Errorf("-result-cache-dir %q requires -result-cache", dir)
	}
	if err := resultcache.CheckDir(dir); err != nil {
		return fmt.Errorf("-result-cache-dir invalid: %w", err)
	}
	return nil
}

func simConfig(mode, size string, line, assoc int, indexing, replace,
	sample string, tlbEntries int, handler string) (tapeworm.SimConfig, error) {
	var cfg tapeworm.SimConfig
	switch mode {
	case "icache":
		cfg.Mode = tapeworm.ModeICache
	case "dcache":
		cfg.Mode = tapeworm.ModeDCache
	case "unified":
		cfg.Mode = tapeworm.ModeUnified
	case "tlb":
		cfg.Mode = tapeworm.ModeTLB
	default:
		return cfg, fmt.Errorf("unknown mode %q", mode)
	}
	switch handler {
	case "optimized":
		cfg.Handler = tapeworm.HandlerOptimized
	case "c":
		cfg.Handler = tapeworm.HandlerOriginalC
	case "hw":
		cfg.Handler = tapeworm.HandlerHardwareAssist
	default:
		return cfg, fmt.Errorf("unknown handler model %q", handler)
	}

	bytes, err := parseSize(size)
	if err != nil {
		return cfg, err
	}
	var repl = tapeworm.LRU
	switch replace {
	case "lru":
	case "fifo":
		repl = tapeworm.FIFO
	case "random":
		repl = tapeworm.Random
	default:
		return cfg, fmt.Errorf("unknown replacement %q", replace)
	}
	idx := tapeworm.PhysIndexed
	switch indexing {
	case "physical":
	case "virtual":
		idx = tapeworm.VirtIndexed
	default:
		return cfg, fmt.Errorf("unknown indexing %q", indexing)
	}

	if cfg.Mode == tapeworm.ModeTLB {
		cfg.TLB = tapeworm.TLBConfig{Entries: tlbEntries, PageSize: 4096, Replace: repl}
	} else {
		cfg.Cache = tapeworm.CacheConfig{
			Size: bytes, LineSize: line, Assoc: assoc, Indexing: idx, Replace: repl,
		}
	}

	num, den, err := parseSample(sample)
	if err != nil {
		return cfg, err
	}
	cfg.Sampling = tapeworm.Sampling{Num: num, Den: den}
	return cfg, nil
}

func parseSize(s string) (int, error) {
	mult := 1
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n * mult, nil
}

func parseSample(s string) (num, den int, err error) {
	parts := strings.SplitN(s, "/", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad sampling %q (want num/den)", s)
	}
	num, err = strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, fmt.Errorf("bad sampling %q", s)
	}
	den, err = strconv.Atoi(parts[1])
	if err != nil {
		return 0, 0, fmt.Errorf("bad sampling %q", s)
	}
	if num < 1 || den < 1 {
		return 0, 0, fmt.Errorf("bad sampling %q: numerator and denominator must be at least 1", s)
	}
	if num > den {
		return 0, 0, fmt.Errorf("bad sampling %q: fraction exceeds 1", s)
	}
	return num, den, nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "twsim:", err)
		os.Exit(1)
	}
}
