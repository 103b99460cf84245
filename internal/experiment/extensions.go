package experiment

import (
	"fmt"

	"tapeworm/internal/cache"
	"tapeworm/internal/cache2000"
	"tapeworm/internal/core"
	"tapeworm/internal/kernel"
	"tapeworm/internal/mach"
	"tapeworm/internal/mem"
	"tapeworm/internal/pixie"
	"tapeworm/internal/sched"
	"tapeworm/internal/telemetry"
	"tapeworm/internal/workload"
)

// This file holds experiments beyond the paper's tables and figures:
// ablations of design choices the text discusses qualitatively, and
// studies of effects the paper mentions without measuring.

// ExtAblation quantifies the handler-implementation ladder of Sections
// 4.1/4.3: the original C handler (~2,000 cycles, like the Wisconsin Wind
// Tunnel's 2,500), the optimized assembly handler (246), and hypothetical
// hardware assistance (~50, "a factor of 5").
func ExtAblation(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	spec, err := mustSpec(o, "xlisp")
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ext-ablation",
		Title:   "handler implementation ablation (xlisp, 2K direct-mapped I-cache)",
		Columns: []string{"handler model", "cycles/miss", "slowdown"},
		Notes: []string{
			"the paper reports rewriting the C handler in assembly (Section 4.1) and projects a further ~5x from hardware support (Section 4.3)",
		},
	}
	geom := cache.Config{Size: 2 << 10, LineSize: 16, Assoc: 1, Indexing: cache.PhysIndexed}
	models := []core.HandlerModel{
		core.HandlerOriginalC, core.HandlerOptimized, core.HandlerHardwareAssist,
	}
	jobs := []runJob{{cfg: normalConfig(o, spec, 0)}}
	for _, model := range models {
		model := model
		cfg := &core.Config{Mode: core.ModeICache, Cache: geom,
			Sampling: core.FullSampling(), Handler: model}
		jobs = append(jobs, runJob{
			cfg: runConfig{
				spec: spec, seed: o.Seed, pageSeed: o.Seed, frames: o.Frames,
				tw: cfg, simUser: true,
			},
			progress: func(runResult) string {
				return fmt.Sprintf("ext-ablation: %s done", model)
			},
		})
	}
	results, err := runAll(o, jobs)
	if err != nil {
		return nil, err
	}
	normal := results[0]
	for i, model := range models {
		t.Rows = append(t.Rows, []string{
			model.String(),
			fmt.Sprint(core.HandlerCycles(model, geom)),
			f2(slowdown(results[i+1], normal)),
		})
	}
	return t, nil
}

// ExtBreakEven locates the crossover where trap-driven simulation stops
// being faster than trace-driven simulation. Section 4.1 estimates ~4 hits
// per miss, i.e. miss ratios around 0.20, reachable "only [by] the most
// poorly performing caches"; this experiment drives the miss ratio up with
// pathologically small caches until Tapeworm loses.
func ExtBreakEven(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	spec, err := mustSpec(o, "xlisp")
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "ext-breakeven",
		Title: "trap-driven vs trace-driven crossover (xlisp, shrinking caches)",
		Columns: []string{"cache", "miss ratio", "Tapeworm slowdown",
			"Cache2000 slowdown", "faster"},
		Notes: []string{
			"the handler/trace cost ratio predicts break-even near 4 hits per miss (miss ratio ~0.2)",
		},
	}
	geoms := []cache.Config{
		{Size: 4 << 10, LineSize: 16, Assoc: 1},
		{Size: 1 << 10, LineSize: 16, Assoc: 1},
		{Size: 512, LineSize: 16, Assoc: 1},
		{Size: 256, LineSize: 16, Assoc: 1},
		{Size: 128, LineSize: 16, Assoc: 1},
		{Size: 64, LineSize: 16, Assoc: 1},
	}
	jobs := []runJob{{cfg: normalConfig(o, spec, 0)}}
	for _, geom := range geoms {
		geom := geom
		jobs = append(jobs, runJob{
			cfg: runConfig{
				spec: spec, seed: o.Seed, pageSeed: o.Seed, frames: o.Frames,
				tw: &core.Config{Mode: core.ModeICache, Cache: geom,
					Sampling: core.FullSampling()},
				simUser: true,
			},
		}, runJob{
			cfg: runConfig{
				spec: spec, seed: o.Seed, pageSeed: o.Seed, frames: o.Frames,
				trace: &cache2000.Config{Cache: geom, Kinds: []mem.RefKind{mem.IFetch}},
			},
			progress: func(runResult) string {
				return fmt.Sprintf("ext-breakeven: %s done", sizeKB(geom.Size))
			},
		})
	}
	results, err := runAll(o, jobs)
	if err != nil {
		return nil, err
	}
	normal := results[0]
	for i, geom := range geoms {
		twRes, trRes := results[1+2*i], results[2+2*i]
		twSlow, trSlow := slowdown(twRes, normal), slowdown(trRes, normal)
		faster := "Tapeworm"
		if trSlow < twSlow {
			faster = "Cache2000"
		}
		missRatio := float64(trRes.c2kMisses) / float64(trRes.c2kHits+trRes.c2kMisses)
		t.Rows = append(t.Rows, []string{
			sizeKB(geom.Size), f3(missRatio), f2(twSlow), f2(trSlow), faster,
		})
	}
	// Real instruction streams cannot cross over: sequential fetch caps
	// the miss ratio near 1/(words per line) = 0.25. A synthetic stride
	// equal to the line size removes spatial locality entirely and shows
	// the crossover the cost model predicts.
	row, err := extBreakEvenStride(o)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, row)
	t.Notes = append(t.Notes,
		"the synthetic row fetches with a 16-byte stride (no spatial locality): the only way to push miss ratios past the crossover")
	return t, nil
}

// strideProgram fetches instructions with a fixed stride over a large
// region: every reference touches a new cache line, defeating both the
// simulated cache and the trap filter.
type strideProgram struct {
	n      uint64
	pos    uint32
	stride uint32
	size   uint32
}

// Next implements kernel.Program.
func (p *strideProgram) Next() kernel.Event {
	if p.n == 0 {
		return kernel.Event{Kind: kernel.EvExit}
	}
	p.n--
	va := kernel.TextBase + mem.VAddr(p.pos)
	p.pos += p.stride
	if p.pos >= p.size {
		p.pos = 0
	}
	return kernel.Event{Kind: kernel.EvRef, Ref: mem.Ref{VA: va, Kind: mem.IFetch}}
}

// extBreakEvenStride runs the pathological stride workload under both
// simulators (and uninstrumented) and returns the table row. The three
// runs boot private kernels, so they execute as one scheduler batch.
func extBreakEvenStride(o Options) ([]string, error) {
	const (
		instrs = 400_000
		region = 256 << 10
	)
	geom := cache.Config{Size: 4 << 10, LineSize: 16, Assoc: 1}

	boot := func() (*kernel.Kernel, *kernel.Task, error) {
		kcfg := kernel.DefaultConfig(mach.DECstation5000_200(o.Frames), o.Seed)
		kcfg.Machine.NoFastPath = o.reference
		k, err := kernel.Boot(kcfg)
		if err != nil {
			return nil, nil, err
		}
		task := k.Spawn("stride", &strideProgram{n: instrs, stride: 16, size: region},
			false, false)
		return k, task, nil
	}

	type strideOut struct {
		cycles    uint64
		missRatio float64
	}
	jobs := []sched.Job[strideOut]{
		// Normal run.
		func() (strideOut, error) {
			k, _, err := boot()
			if err != nil {
				return strideOut{}, err
			}
			if err := k.Run(0); err != nil {
				return strideOut{}, err
			}
			return strideOut{cycles: k.Machine().Cycles()}, nil
		},
		// Tapeworm run.
		func() (strideOut, error) {
			k, task, err := boot()
			if err != nil {
				return strideOut{}, err
			}
			if _, err := core.Attach(k, core.Config{Mode: core.ModeICache, Cache: geom,
				Sampling: core.FullSampling()}); err != nil {
				return strideOut{}, err
			}
			if err := k.SetAttributes(task.ID, true, true); err != nil {
				return strideOut{}, err
			}
			if err := k.Run(0); err != nil {
				return strideOut{}, err
			}
			return strideOut{cycles: k.Machine().Cycles()}, nil
		},
		// Trace-driven run.
		func() (strideOut, error) {
			k, task, err := boot()
			if err != nil {
				return strideOut{}, err
			}
			c2k, err := cache2000.New(cache2000.Config{Cache: geom, Kinds: []mem.RefKind{mem.IFetch}})
			if err != nil {
				return strideOut{}, err
			}
			c2k.BindMachine(k.Machine())
			ann := pixie.NewOnTheFly(k.Machine(), c2k)
			ann.IOnly = true
			ann.Annotate(k, task.ID)
			if err := k.Run(0); err != nil {
				return strideOut{}, err
			}
			return strideOut{cycles: k.Machine().Cycles(), missRatio: c2k.MissRatio()}, nil
		},
	}
	res, err := sched.Run(o.Parallelism, jobs, nil)
	if err != nil {
		return nil, err
	}
	normalCycles := res[0].cycles
	twSlow := float64(res[1].cycles-normalCycles) / float64(normalCycles)
	trSlow := float64(res[2].cycles-normalCycles) / float64(normalCycles)
	faster := "Tapeworm"
	if trSlow < twSlow {
		faster = "Cache2000"
	}
	return []string{"stride-16", f3(res[2].missRatio), f2(twSlow), f2(trSlow), faster}, nil
}

// ExtFragmentation measures the long-running-system TLB effect of Section
// 4.2: repeated runs of one workload on a single booted system whose
// servers fragment their heaps show creeping TLB miss rates.
func ExtFragmentation(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	spec, err := mustSpec(o, "ousterhout")
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ext-fragmentation",
		Title:   "TLB misses on a long-running, fragmenting system (ousterhout, 64-entry TLB)",
		Columns: []string{"iteration", "fresh system (misses/1K)", "fragmenting system (misses/1K)"},
		Notes: []string{
			"each column is one booted system running the workload repeatedly; the fragmenting system's servers spread their heaps as they serve requests",
		},
	}
	const iterations = 5
	series := func(fragBytes int) ([]float64, error) {
		kcfg := kernel.DefaultConfig(mach.DECstation5000_200(o.Frames), o.Seed)
		kcfg.ServerFragBytesPerReq = fragBytes
		kcfg.Machine.NoFastPath = o.reference
		k, err := kernel.Boot(kcfg)
		if err != nil {
			return nil, err
		}
		tw, err := core.Attach(k, core.Config{
			Mode:     core.ModeTLB,
			TLB:      cache.TLBConfig{Entries: 64, PageSize: 4096, Replace: cache.LRU},
			Sampling: core.FullSampling(),
		})
		if err != nil {
			return nil, err
		}
		for _, kind := range []kernel.ServerKind{kernel.BSDServer, kernel.XServer} {
			if st := k.Server(kind); st != nil {
				if err := tw.Attributes(st.ID, true, false); err != nil {
					return nil, err
				}
			}
		}
		// Each stream runs on just these two systems, so it replays
		// decode-ahead rather than as a compiled image kept in the cache.
		newProgram := workload.New
		if o.reference {
			newProgram = workload.NewReference
		}
		var out []float64
		var prevM, prevI uint64
		for i := 0; i < iterations; i++ {
			prog, err := newProgram(spec, o.Seed+uint64(i))
			if err != nil {
				return nil, err
			}
			k.Spawn(spec.Name, prog, true, true)
			if err := k.Run(0); err != nil {
				return nil, err
			}
			m, in := tw.Misses()-prevM, k.Machine().Instructions()-prevI
			prevM, prevI = tw.Misses(), k.Machine().Instructions()
			out = append(out, 1000*float64(m)/float64(in))
		}
		return out, nil
	}
	// Each series is inherently serial (iterations share one booted
	// system), but the fresh and fragmenting systems are independent.
	labels := []string{"fresh", "fragmenting"}
	ord := telemetry.NewOrderer[[]float64](func(i int, _ []float64) {
		o.progress("ext-fragmentation: %s system done", labels[i])
	})
	both, err := sched.Run(o.Parallelism, []sched.Job[[]float64]{
		func() ([]float64, error) { return series(0) },
		func() ([]float64, error) { return series(96) },
	}, ord.Put)
	if err != nil {
		return nil, err
	}
	fresh, frag := both[0], both[1]
	for i := 0; i < iterations; i++ {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(i + 1), f3(fresh[i]), f3(frag[i]),
		})
	}
	return t, nil
}

// ExtReplacement quantifies the replacement-fidelity gap inherent to
// trap-driven simulation: hits are invisible, so associative "LRU"
// degrades to insertion-order (FIFO). The trap-driven miss counts equal a
// trace-driven FIFO simulation exactly; true LRU differs.
func ExtReplacement(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	spec, err := mustSpec(o, "espresso")
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "ext-replacement",
		Title: "trap-driven replacement fidelity (espresso, 2-way I-caches)",
		Columns: []string{"cache size", "trap-driven misses", "trace FIFO misses",
			"trace LRU misses"},
		Notes: []string{
			"trap-driven simulators never see hits, so per-hit recency cannot be maintained: associative replacement is insertion-order, matching trace-driven FIFO exactly",
		},
	}
	sizes := []int{1 << 10, 2 << 10, 4 << 10}
	var jobs []runJob
	for _, size := range sizes {
		size := size
		geom := cache.Config{Size: size, LineSize: 16, Assoc: 2, Indexing: cache.VirtIndexed}
		traceJob := func(r cache.Replacement) runJob {
			g := geom
			g.Replace = r
			return runJob{cfg: runConfig{
				spec: spec, seed: o.Seed, pageSeed: o.Seed, frames: o.Frames,
				trace: &cache2000.Config{Cache: g, Kinds: []mem.RefKind{mem.IFetch}},
			}}
		}
		jobs = append(jobs, runJob{
			cfg: runConfig{
				spec: spec, seed: o.Seed, pageSeed: o.Seed, frames: o.Frames,
				tw: &core.Config{Mode: core.ModeICache, Cache: geom,
					Sampling: core.FullSampling()},
				simUser: true,
			},
		}, traceJob(cache.FIFO), traceJob(cache.LRU))
		jobs[len(jobs)-1].progress = func(runResult) string {
			return fmt.Sprintf("ext-replacement: %s done", sizeKB(size))
		}
	}
	results, err := runAll(o, jobs)
	if err != nil {
		return nil, err
	}
	for i, size := range sizes {
		twRes, fifo, lru := results[3*i], results[3*i+1], results[3*i+2]
		t.Rows = append(t.Rows, []string{
			sizeKB(size),
			fmt.Sprint(twRes.twStats.Misses),
			fmt.Sprint(fifo.c2kMisses),
			fmt.Sprint(lru.c2kMisses),
		})
	}
	return t, nil
}
