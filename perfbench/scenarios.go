package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"unsafe"

	"tapeworm/internal/cache"
	"tapeworm/internal/cache2000"
	"tapeworm/internal/core"
	"tapeworm/internal/experiment"
	"tapeworm/internal/kernel"
	"tapeworm/internal/mach"
	"tapeworm/internal/mem"
	"tapeworm/internal/phase"
	"tapeworm/internal/pixie"
	"tapeworm/internal/workload"
)

// frames is the simulated physical memory size, the simulator's default.
const frames = 8192

// sweepWorkload drives both design-space sweeps, as cmd/twsweep does.
const sweepWorkload = "mpeg_play"

// Sampled-sweep geometry: 128 intervals, 2 phases, 3000-instruction
// warm-up.
const (
	phaseIntervals = 128
	phaseK         = 2
	phaseWarmup    = 3000
)

// maxMissRatioErr is the accuracy bound a sampled grid point must meet
// against its exhaustive reference (absolute miss-ratio points).
const maxMissRatioErr = 0.02

var sweepSizes = []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10}

// narrowGrid has at most 64 points (the gang's bitset trap demux);
// wideGrid has more (the linear demux).
var (
	narrowGrid = experiment.SweepConfig{Workload: sweepWorkload, Sizes: sweepSizes,
		Assocs: []int{1, 2, 4, 8}, Lines: []int{16, 32}}
	wideGrid = experiment.SweepConfig{Workload: sweepWorkload, Sizes: sweepSizes,
		Assocs: []int{1, 2, 4, 8}, Lines: []int{16, 32, 64, 128}}
)

var scenarios = []*scenario{soloHits(), sweepGang(), osTables(), sweepSampled()}

func scenarioNames() []string {
	var out []string
	for _, w := range scenarios {
		out = append(out, w.name)
	}
	return out
}

func scenarioByName(name string) (*scenario, bool) {
	for _, w := range scenarios {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// --- shared helpers ---

func kernelConfig(seed uint64) kernel.Config {
	kcfg := kernel.DefaultConfig(mach.DECstation5000_200(frames), seed)
	kcfg.PageSeed = seed
	return kcfg
}

func icache(size, assoc, line int) core.Config {
	return core.Config{
		Mode:     core.ModeICache,
		Cache:    cache.Config{Size: size, LineSize: line, Assoc: assoc, Indexing: cache.PhysIndexed},
		Sampling: core.FullSampling(),
	}
}

func gridConfigs(g experiment.SweepConfig) []core.Config {
	var out []core.Config
	for _, size := range g.Sizes {
		for _, assoc := range g.Assocs {
			for _, line := range g.Lines {
				out = append(out, icache(size, assoc, line))
			}
		}
	}
	return out
}

// boot boots a kernel inside a kernel.boot span.
func boot(b *bench, seed uint64) (*kernel.Kernel, error) {
	return spanV(b, "kernel.boot", func() (*kernel.Kernel, error) { return kernel.Boot(kernelConfig(seed)) })
}

func release(b *bench, k *kernel.Kernel) {
	_ = b.span("kernel.release", func() error { k.ReleaseBuffers(); return nil })
}

// bootAttach is the boot-and-attach half of a set-up repetition: one
// booted kernel with the scenario's simulators attached, then released.
func bootAttach(b *bench, cfgs []core.Config) error {
	k, err := boot(b, b.seed)
	if err != nil {
		return err
	}
	defer release(b, k)
	return b.span("core.attach", func() error {
		if len(cfgs) == 1 {
			_, err := core.Attach(k, cfgs[0])
			return err
		}
		_, err := core.AttachGang(k, cfgs)
		return err
	})
}

// compile compiles one stream afresh (bypassing the process image cache)
// inside a workload.compile span. A stream beyond the compile budget
// returns nil: the simulator runs it on the interpreter.
func compile(b *bench, spec workload.Spec) (*workload.Compiled, error) {
	c, err := spanV(b, "workload.compile", func() (*workload.Compiled, error) { return workload.Compile(spec, b.seed) })
	if errors.Is(err, workload.ErrStreamTooLarge) {
		return nil, nil
	}
	return c, err
}

// planned fills the process-wide compiled-image cache for spec, as the
// experiment functions' first run would.
func planned(b *bench, spec workload.Spec) (kernel.Program, error) {
	return spanV(b, "workload.plan", func() (kernel.Program, error) { return workload.NewPlanned(spec, b.seed) })
}

// streamCounts is what a decode-only drain of a program sees.
type streamCounts struct {
	instr, data, syscalls, ops uint64
}

func (s streamCounts) refs() uint64 { return s.instr + s.data }

// drain decodes a program's whole fork tree through NextRun with no
// machine attached: the workload layer's cost alone.
func drain(p kernel.Program) (streamCounts, error) {
	var c streamCounts
	stack := []kernel.Program{p}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		bp, ok := p.(kernel.BatchProgram)
		if !ok {
			return c, fmt.Errorf("program %T is not batchable", p)
		}
		for done := false; !done; {
			c.ops++
			_, n, ev := bp.NextRun(kernel.CompiledRunCap)
			if n > 0 {
				c.instr += uint64(n)
				continue
			}
			switch ev.Kind {
			case kernel.EvRef:
				c.data++
			case kernel.EvSyscall:
				c.syscalls++
			case kernel.EvFork:
				stack = append(stack, ev.Child)
			case kernel.EvExit:
				done = true
			}
		}
	}
	return c, nil
}

// decodeAndBare times the first two passes of the three-way split for
// one stream: a decode-only drain and a bare run (no simulator). It
// returns the drain's counts and both durations in seconds.
func decodeAndBare(b *bench, spec workload.Spec, fresh func() (kernel.Program, error)) (streamCounts, float64, float64, error) {
	var counts streamCounts
	prog, err := fresh()
	if err != nil {
		return counts, 0, 0, err
	}
	decodeName := "workload.decode." + spec.Name
	runtime.GC()
	if err := b.span(decodeName, func() error {
		counts, err = drain(prog)
		return err
	}); err != nil {
		return counts, 0, 0, err
	}
	k, err := boot(b, b.seed)
	if err != nil {
		return counts, 0, 0, err
	}
	defer release(b, k)
	if prog, err = fresh(); err != nil {
		return counts, 0, 0, err
	}
	bareName := "mach.bare." + spec.Name
	runtime.GC()
	if err := b.span(bareName, func() error {
		k.Spawn(spec.Name, prog, false, false)
		return k.Run(0)
	}); err != nil {
		return counts, 0, 0, err
	}
	return counts, last(b.led.durations(decodeName)), last(b.led.durations(bareName)), nil
}

func last(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[len(xs)-1]
}

// checkTable records one operation per table row (one simulated
// configuration, named by its first keyCols cells) plus one for the
// rendered bytes.
func checkTable(b *bench, prefix string, t *experiment.Table, keyCols int) {
	for _, row := range t.Rows {
		b.check(prefix+"."+opName(row, keyCols), digest(strings.Join(row, "|")))
	}
	rendered, _ := spanV(b, "experiment.render", func() (string, error) { return t.Render(), nil })
	b.check(prefix+".render", digest(rendered))
}

// opName joins a row's first n (identifying) cells into an operation
// name.
func opName(row []string, n int) string {
	return strings.ReplaceAll(strings.Join(row[:n], "-"), " ", "")
}

// sweepKey is the number of identifying cells of a sweep row: size,
// associativity, line.
const sweepKey = 3

// sweepMisses sums a sweep table's misses column: one trap per miss per
// member.
func sweepMisses(t *experiment.Table) float64 {
	s := 0.0
	for _, row := range t.Rows {
		v, _ := strconv.ParseFloat(row[3], 64)
		s += v
	}
	return s
}

// --- solo-hits ---

// soloSlice is the machine-instruction length of one timed slice of a
// solo run.
const soloSlice = 2 << 20

// soloConfig is the large cache of the hit-path workload: 64 KB
// direct-mapped, 16-byte lines.
func soloConfig() core.Config { return icache(64<<10, 1, 16) }

func soloHits() *scenario {
	w := &scenario{name: "solo-hits", scale: 100,
		why: "all 8 paper workloads solo at scale 100 in a 64 KB cache: the trap-free hit path, with half the streams on the interpreter"}
	var specs []workload.Spec
	compiled := map[string]*workload.Compiled{}    // nil: interpreted
	var totalInstr, interpInstr, fastWords float64 // counted in one iteration
	program := func(b *bench, spec workload.Spec) (kernel.Program, error) {
		if c := compiled[spec.Name]; c != nil {
			c.SeekOp(0)
			return c, nil
		}
		return spanV(b, "workload.new", func() (kernel.Program, error) { return workload.New(spec, b.seed) })
	}
	w.setup = func(b *bench) error {
		specs = workload.Specs(b.scale())
		clear(compiled) // let the previous repetition's images go first
		runtime.GC()
		for _, spec := range specs {
			c, err := compile(b, spec)
			if err != nil {
				return err
			}
			compiled[spec.Name] = c
		}
		totalInstr, interpInstr, fastWords = 0, 0, 0
		return bootAttach(b, []core.Config{soloConfig()})
	}
	for _, name := range workload.Names() {
		name := name
		w.steps = append(w.steps, step{name: "run." + name, run: func(b *bench) error {
			spec, err := workload.ByName(name, b.scale())
			if err != nil {
				return err
			}
			prog, err := program(b, spec)
			if err != nil {
				return err
			}
			r, err := soloRun(b, spec, prog, "core.run."+name)
			if err != nil {
				return err
			}
			b.instr += float64(r.instr)
			b.check("run."+name, digest(r.stats.Misses, r.stats.MissesByComp, r.instr, r.comp, r.kstats))
			if b.counts {
				b.layer["core.traps"] += float64(r.stats.Misses)
				b.layer["kernel.runs"]++
				b.layer["kernel.tasks_spawned"] += float64(r.kstats.UserSpawned)
				b.layer["mach.xl_hits"] += float64(r.xlHits)
				fastWords += float64(r.runWords)
				totalInstr += float64(r.instr)
				if compiled[name] == nil {
					interpInstr += float64(r.instr)
				}
			}
			return nil
		}})
	}
	w.probe = func(b *bench) error {
		var dec, decRefs, idec, idecRefs, bareMach, refs, trapHost, traps, imageBytes float64
		for _, spec := range specs {
			fresh := func() (kernel.Program, error) { return program(b, spec) }
			counts, d, bare, err := decodeAndBare(b, spec, fresh)
			if err != nil {
				return err
			}
			if compiled[spec.Name] != nil {
				dec += d
				decRefs += float64(counts.refs())
				imageBytes += float64(counts.ops) * float64(unsafe.Sizeof(kernel.CompiledOp{}))
			} else {
				idec += d
				idecRefs += float64(counts.refs())
			}
			b.layer["kernel.syscalls"] += float64(counts.syscalls)
			bareMach += bare - d
			refs += float64(counts.refs())
			// The instrumented pass, right after the bare one.
			prog, err := fresh()
			if err != nil {
				return err
			}
			runtime.GC()
			name := "core.probe." + spec.Name
			r, err := soloRun(b, spec, prog, name)
			if err != nil {
				return err
			}
			trapHost += last(b.led.durations(name)) - bare
			traps += float64(r.stats.Misses)
		}
		b.layer["workload.compile_s"] = sum(b.led.durations("workload.compile")) / float64(b.reps)
		b.layer["workload.image_mb"] = imageBytes / 1e6
		b.layer["workload.interp_instr_share"] = interpInstr / totalInstr
		b.layer["mach.fastpath_word_share"] = fastWords / totalInstr
		b.layer["workload.decode_ns_per_ref.compiled"] = nsPer(dec, decRefs)
		b.layer["workload.decode_ns_per_ref.interp"] = nsPer(idec, idecRefs)
		b.layer["mach.bare_ns_per_ref"] = nsPer(bareMach, refs)
		b.layer["core.ns_per_trap"] = nsPer(trapHost, traps)
		return nil
	}
	return w
}

// soloResult is what one solo run reports.
type soloResult struct {
	stats            core.Stats
	instr            uint64
	comp             [kernel.NumComponents]uint64
	kstats           kernel.Stats
	xlHits, runWords uint64
}

// soloRun boots a kernel, attaches the 64 KB simulator and runs prog to
// completion inside the span spanName.
func soloRun(b *bench, spec workload.Spec, prog kernel.Program, spanName string) (soloResult, error) {
	var r soloResult
	k, err := boot(b, b.seed)
	if err != nil {
		return r, err
	}
	defer release(b, k)
	tw, err := spanV(b, "core.attach", func() (*core.Tapeworm, error) { return core.Attach(k, soloConfig()) })
	if err != nil {
		return r, err
	}
	if err := b.span(spanName, func() error {
		k.Spawn(spec.Name, prog, true, true)
		// Run in slices, each a timing segment; the stop points are
		// deterministic and resuming is exact.
		for target := uint64(soloSlice); k.UserTasksAlive() > 0; target += soloSlice {
			if err := k.RunUntilInstr(target); err != nil {
				return err
			}
			b.mark()
		}
		return nil
	}); err != nil {
		return r, err
	}
	m := k.Machine()
	r.stats, r.instr, r.comp, r.kstats = tw.Stats(), m.Instructions(), k.ComponentInstructions(), k.Stats()
	r.xlHits, r.runWords = m.FastPathStats()
	return r, nil
}

// --- sweep-gang ---

func sweepGang() *scenario {
	w := &scenario{name: "sweep-gang", scale: 400,
		why: "mpeg_play cache-geometry sweeps: a 48-point gang (bitset demux), a 96-point gang (linear demux), then a warm result-cache repeat"}
	var spec workload.Spec
	var narrowMisses, wideMisses float64
	w.setup = func(b *bench) error {
		var err error
		if spec, err = workload.ByName(sweepWorkload, b.scale()); err != nil {
			return err
		}
		if _, err := compile(b, spec); err != nil {
			return err
		}
		return bootAttach(b, gridConfigs(narrowGrid))
	}
	w.warm = func(b *bench) error { _, err := planned(b, spec); return err }
	w.reset = experiment.ResetResultCache
	sweep := func(name, prefix string, g experiment.SweepConfig, executions int, misses *float64) step {
		return step{name: name, run: func(b *bench) error {
			o := b.options()
			o.ResultCache = true
			t, err := spanV(b, "experiment.run."+name, func() (*experiment.Table, error) { return experiment.Sweep(o, g) })
			if err != nil {
				return err
			}
			checkTable(b, prefix, t, sweepKey)
			b.instr += float64(executions) * float64(spec.TotalInstructions())
			if b.counts {
				b.layer["kernel.runs"] += float64(executions)
				if misses != nil {
					*misses = sweepMisses(t)
				}
			}
			return nil
		}}
	}
	wide := sweep("sweep.wide", "wide", wideGrid, 2, &wideMisses)
	warm := sweep("sweep.warm", "wide", wideGrid, 0, nil)
	w.steps = []step{
		sweep("sweep.narrow", "narrow", narrowGrid, 2, &narrowMisses),
		{name: wide.name, run: func(b *bench) error {
			// The wide grid contains the narrow one; start it cold so all
			// 96 members share one gang.
			if b.counts {
				addResultCacheStats(b.layer)
			}
			experiment.ResetResultCache()
			return wide.run(b)
		}},
		{name: warm.name, run: func(b *bench) error {
			before := experiment.ResultCacheStats()
			if err := warm.run(b); err != nil {
				return err
			}
			after := experiment.ResultCacheStats()
			b.check("warm.cache", digest(after.Hits-before.Hits, after.Misses-before.Misses))
			return nil
		}},
	}
	w.probe = func(b *bench) error {
		_, _, bare, err := decodeAndBare(b, spec, func() (kernel.Program, error) { return planned(b, spec) })
		if err != nil {
			return err
		}
		narrow := median(b.stepTimes["sweep.narrow"]) - 2*bare
		wide := median(b.stepTimes["sweep.wide"]) - 2*bare
		b.layer["core.gang_members.narrow"] = float64(narrowGrid.Points())
		b.layer["core.gang_members.wide"] = float64(wideGrid.Points())
		b.layer["core.gang_ns_per_member_trap.narrow"] = nsPer(narrow, narrowMisses)
		b.layer["core.gang_ns_per_member_trap.wide"] = nsPer(wide, wideMisses)
		b.layer["core.traps"] = narrowMisses + wideMisses
		b.layer["core.ns_per_trap"] = nsPer(narrow+wide, narrowMisses+wideMisses)
		b.layer["resultcache.warm_s"] = median(b.stepTimes["sweep.warm"])
		b.layer["workload.compile_s"] = sum(b.led.durations("workload.compile")) / float64(b.reps)
		return nil
	}
	return w
}

// --- os-tables ---

// table6Config is Table 6's all-activity cache: 4 KB direct-mapped.
func table6Config() core.Config { return icache(4<<10, 1, 16) }

func osTables() *scenario {
	w := &scenario{name: "os-tables", scale: 800,
		why: "Table 6 and the TLB fragmentation study: kernel and server pages, Pixie+Cache2000 runs, TLB valid-bit traps, many short boots"}
	var specs []workload.Spec
	w.setup = func(b *bench) error {
		specs = workload.Specs(b.scale())
		for _, spec := range specs {
			if _, err := compile(b, spec); err != nil {
				return err
			}
		}
		return bootAttach(b, []core.Config{table6Config()})
	}
	w.steps = []step{
		{name: "table6", run: func(b *bench) error {
			t, err := spanV(b, "experiment.run.table6", func() (*experiment.Table, error) { return experiment.Table6(b.options()) })
			if err != nil {
				return err
			}
			checkTable(b, "table6", t, 1)
			// Per workload: four dedicated/shared-cache runs, plus one
			// trace-driven run for single-task workloads.
			for _, spec := range specs {
				n := 4.0
				if spec.Tasks == 1 {
					n++
				}
				b.instr += n * float64(spec.TotalInstructions())
				if b.counts {
					b.layer["kernel.runs"] += n
				}
			}
			return nil
		}},
		{name: "ext-fragmentation", run: func(b *bench) error {
			t, err := spanV(b, "experiment.run.ext-fragmentation", func() (*experiment.Table, error) {
				return experiment.ExtFragmentation(b.options())
			})
			if err != nil {
				return err
			}
			checkTable(b, "ext-fragmentation", t, 1)
			spec, err := workload.ByName("ousterhout", b.scale())
			if err != nil {
				return err
			}
			// Two booted systems, five workload runs each.
			b.instr += 10 * float64(spec.TotalInstructions())
			if b.counts {
				b.layer["kernel.runs"] += 10
			}
			return nil
		}},
	}
	w.probe = func(b *bench) error {
		var trapHost, traps, c2kHost, c2kRefs float64
		for _, spec := range specs {
			spec := spec
			fresh := func() (kernel.Program, error) { return planned(b, spec) }
			counts, _, bare, err := decodeAndBare(b, spec, fresh)
			if err != nil {
				return err
			}
			b.layer["kernel.syscalls"] += float64(counts.syscalls)
			// The instrumented pass: the all-activity configuration on the
			// solo dilating-clock path, kernel and server pages simulated.
			misses, instrumented, err := soloAllActivity(b, spec, fresh)
			if err != nil {
				return err
			}
			trapHost += instrumented - bare
			traps += misses
			if spec.Tasks == 1 {
				refs, traced, err := traceDriven(b, spec, fresh)
				if err != nil {
					return err
				}
				c2kHost += traced - bare
				c2kRefs += refs
			}
		}
		b.layer["core.traps"] = traps
		b.layer["core.ns_per_trap"] = nsPer(trapHost, traps)
		b.layer["cache2000.ns_per_ref"] = nsPer(c2kHost, c2kRefs)
		b.layer["workload.compile_s"] = sum(b.led.durations("workload.compile")) / float64(b.reps)
		return nil
	}
	return w
}

// soloAllActivity runs spec with Table 6's shared cache on a solo
// Tapeworm, simulating user, server and kernel pages; it returns the
// misses and the run's host seconds.
func soloAllActivity(b *bench, spec workload.Spec, fresh func() (kernel.Program, error)) (float64, float64, error) {
	k, err := boot(b, b.seed)
	if err != nil {
		return 0, 0, err
	}
	defer release(b, k)
	tw, err := spanV(b, "core.attach", func() (*core.Tapeworm, error) { return core.Attach(k, table6Config()) })
	if err != nil {
		return 0, 0, err
	}
	for _, kind := range []kernel.ServerKind{kernel.BSDServer, kernel.XServer} {
		if st := k.Server(kind); st != nil {
			if err := tw.Attributes(st.ID, true, false); err != nil {
				return 0, 0, err
			}
		}
	}
	if err := tw.Attributes(mem.KernelTask, true, false); err != nil {
		return 0, 0, err
	}
	prog, err := fresh()
	if err != nil {
		return 0, 0, err
	}
	name := "core.run." + spec.Name
	runtime.GC()
	if err := b.span(name, func() error {
		k.Spawn(spec.Name, prog, true, true)
		return k.Run(0)
	}); err != nil {
		return 0, 0, err
	}
	return float64(tw.Misses()), last(b.led.durations(name)), nil
}

// traceDriven runs spec under Pixie-style annotation feeding Cache2000
// (Table 6's From Traces column); it returns the references the
// simulator processed and the run's host seconds.
func traceDriven(b *bench, spec workload.Spec, fresh func() (kernel.Program, error)) (float64, float64, error) {
	k, err := boot(b, b.seed)
	if err != nil {
		return 0, 0, err
	}
	defer release(b, k)
	c2k, err := cache2000.New(cache2000.Config{
		Cache: cache.Config{Size: 4 << 10, LineSize: 16, Assoc: 1},
		Kinds: []mem.RefKind{mem.IFetch},
	})
	if err != nil {
		return 0, 0, err
	}
	c2k.BindMachine(k.Machine())
	prog, err := fresh()
	if err != nil {
		return 0, 0, err
	}
	name := "cache2000.run." + spec.Name
	runtime.GC()
	if err := b.span(name, func() error {
		task := k.Spawn(spec.Name, prog, false, false)
		ann := pixie.NewOnTheFly(k.Machine(), c2k)
		ann.IOnly = true
		ann.Annotate(k, task.ID)
		return k.Run(0)
	}); err != nil {
		return 0, 0, err
	}
	return float64(c2k.Processed()), last(b.led.durations(name)), nil
}

// --- sweep-sampled ---

func sweepSampled() *scenario {
	w := &scenario{name: "sweep-sampled", scale: 125,
		why: "the 96-point mpeg_play sweep through representative-interval replay: phase analysis, mid-run checkpoints and forks"}
	var spec workload.Spec
	var plan phase.Plan
	w.setup = func(b *bench) error {
		var err error
		if spec, err = workload.ByName(sweepWorkload, b.scale()); err != nil {
			return err
		}
		if _, err := compile(b, spec); err != nil {
			return err
		}
		if plan, err = spanV(b, "phase.analyze", func() (phase.Plan, error) {
			return phase.Analyze(spec, b.seed, phase.Config{Intervals: phaseIntervals, K: phaseK, Seed: b.seed})
		}); err != nil {
			return err
		}
		return bootAttach(b, gridConfigs(wideGrid))
	}
	w.warm = func(b *bench) error { _, err := planned(b, spec); return err }
	w.reset = func() {
		experiment.ResetResultCache()
		experiment.ResetIntervalProfiles()
	}
	w.steps = []step{{name: "sweep.sampled", run: func(b *bench) error {
		o := b.options()
		o.ResultCache = true
		o.PhaseIntervals, o.PhaseK, o.PhaseWarmup = phaseIntervals, phaseK, phaseWarmup
		profiles, _ := experiment.IntervalStats()
		t, err := spanV(b, "experiment.run.sweep.sampled", func() (*experiment.Table, error) { return experiment.Sweep(o, wideGrid) })
		if err != nil {
			return err
		}
		after, _ := experiment.IntervalStats()
		checkTable(b, "sampled", t, sweepKey)
		// One normal run and one gang execution's worth of results, from
		// one uninstrumented profiling pass plus a replay per phase.
		b.instr += 2 * float64(spec.TotalInstructions())
		if b.counts {
			b.layer["kernel.runs"] += float64(2 + len(plan.Reps))
		}

		// Provenance: sampling was asked for, so a profiling pass must
		// have run and the table must not be the exhaustive one.
		b.attempted++
		if after == profiles || (b.reference != nil && sameAsReference(t, b.reference)) {
			b.failOp("sampled.provenance", fmt.Errorf("sampled sweep returned exhaustive output"))
			if b.counts {
				b.layer["phase.fallbacks"]++
			}
		}
		if b.reference == nil {
			return nil
		}
		b.attempted++
		worst, err := worstMissRatioErr(t, b.reference)
		if b.counts {
			b.layer["miss_ratio_err"] = worst
		}
		if err != nil || worst > maxMissRatioErr {
			b.failOp("sampled.accuracy", fmt.Errorf("miss-ratio error %.4f (bound %.2f): %v", worst, maxMissRatioErr, err))
		}
		return nil
	}}}
	w.probe = func(b *bench) error {
		if _, _, _, err := decodeAndBare(b, spec, func() (kernel.Program, error) { return planned(b, spec) }); err != nil {
			return err
		}
		replayed := 0.0
		for _, rep := range plan.Reps {
			replayed += float64(rep.Len() + min(uint64(phaseWarmup), rep.Start))
		}
		if plan.TotalUser > 0 {
			b.layer["phase.replayed_instr_share"] = replayed / float64(plan.TotalUser)
		}
		b.layer["phase.analyze_s"] = median(b.led.durations("phase.analyze"))
		b.layer["workload.compile_s"] = sum(b.led.durations("workload.compile")) / float64(b.reps)
		return nil
	}
	return w
}

// referenceCells extracts each grid point's misses-per-1K-instructions
// cell, the exhaustive accuracy reference of the sampled sweep.
func referenceCells(t *experiment.Table) map[string]string {
	out := map[string]string{}
	for _, row := range t.Rows {
		out[opName(row, sweepKey)] = row[5]
	}
	return out
}

func sameAsReference(t *experiment.Table, ref map[string]string) bool {
	for k, v := range referenceCells(t) {
		if ref[k] != v {
			return false
		}
	}
	return true
}

// worstMissRatioErr is the largest absolute miss-ratio difference of any
// grid point against the exhaustive reference.
func worstMissRatioErr(t *experiment.Table, ref map[string]string) (float64, error) {
	worst := 0.0
	for k, v := range referenceCells(t) {
		r, ok := ref[k]
		if !ok {
			return math.Inf(1), fmt.Errorf("no reference for %s", k)
		}
		got, err1 := strconv.ParseFloat(v, 64)
		want, err2 := strconv.ParseFloat(r, 64)
		if err1 != nil || err2 != nil {
			return math.Inf(1), fmt.Errorf("unparsable cells %q, %q", v, r)
		}
		worst = math.Max(worst, math.Abs(got-want)/1000)
	}
	return worst, nil
}

func nsPer(seconds, n float64) float64 {
	if n <= 0 {
		return 0
	}
	return seconds * 1e9 / n
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
