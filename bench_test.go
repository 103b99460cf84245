// Benchmarks regenerating the paper's evaluation: one benchmark per table
// and figure (see DESIGN.md's per-experiment index), plus ablation and
// microbenchmarks for the design choices the paper discusses.
//
// Benchmarks run the experiments at a reduced workload scale so `go test
// -bench=.` completes in minutes; `cmd/twbench -scale 100` regenerates the
// full-scale report. Key scalar results are attached as custom metrics.
package tapeworm_test

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"tapeworm"
	"tapeworm/internal/cache"
	"tapeworm/internal/core"
	"tapeworm/internal/experiment"
	"tapeworm/internal/kernel"
	"tapeworm/internal/mach"
	"tapeworm/internal/workload"
)

// benchOptions is the reduced scale used by the benchmark harness.
func benchOptions() experiment.Options {
	return experiment.Options{Scale: 1000, Seed: 1994, Trials: 4, Frames: 4096}
}

// runExperiment runs one experiment per benchmark iteration and reports
// the table's row count so regressions in coverage are visible.
func runExperiment(b *testing.B, id string) *experiment.Table {
	b.Helper()
	fn, err := experiment.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var table *experiment.Table
	for i := 0; i < b.N; i++ {
		table, err = fn(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(table.Rows)), "rows")
	return table
}

// cell parses the numeric prefix of a table cell ("1.23 (0.045)" -> 1.23).
func cell(b *testing.B, s string) float64 {
	b.Helper()
	f := strings.Fields(s)
	if len(f) == 0 {
		return 0
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSuffix(f[0], "%"), "x"), 64)
	if err != nil {
		b.Fatalf("unparseable cell %q: %v", s, err)
	}
	return v
}

func BenchmarkTable3_WorkloadSummary(b *testing.B) {
	runExperiment(b, "table3")
}

func BenchmarkTable4_WorkloadSummary(b *testing.B) {
	t := runExperiment(b, "table4")
	// Report mpeg_play's kernel share (paper: 24.1%).
	for _, row := range t.Rows {
		if row[0] == "mpeg_play" {
			b.ReportMetric(cell(b, row[3]), "mpeg-kernel-%")
		}
	}
}

func BenchmarkTable5_MissHandlerCost(b *testing.B) {
	t := runExperiment(b, "table5")
	for _, row := range t.Rows {
		if row[0] == "break-even hits per miss" {
			b.ReportMetric(cell(b, row[1]), "breakeven-hits/miss")
		}
	}
}

func BenchmarkFigure2_SlowdownVsCacheSize(b *testing.B) {
	t := runExperiment(b, "figure2")
	// Report the 1K-cache slowdowns (paper: Cache2000 30.2, Tapeworm 6.27;
	// the shape comparison is the Cache2000/Tapeworm ratio, about 3-5x).
	first := t.Rows[0]
	b.ReportMetric(cell(b, first[2]), "c2k-slowdown@1K")
	b.ReportMetric(cell(b, first[3]), "tw-slowdown@1K")
}

func BenchmarkFigure3_Configurations(b *testing.B) {
	runExperiment(b, "figure3")
}

func BenchmarkTable6_Components(b *testing.B) {
	t := runExperiment(b, "table6")
	for _, row := range t.Rows {
		if row[0] == "ousterhout" {
			// All-activity vs user-only ratio: the completeness headline.
			user, all := cell(b, row[2]), cell(b, row[5])
			if user > 0 {
				b.ReportMetric(all/user, "ousterhout-all/user")
			}
		}
	}
}

func BenchmarkTable7_Variation(b *testing.B) {
	runExperiment(b, "table7")
}

func BenchmarkTable8_SamplingVariation(b *testing.B) {
	runExperiment(b, "table8")
}

func BenchmarkTable9_PageAllocation(b *testing.B) {
	runExperiment(b, "table9")
}

func BenchmarkTable10_VariationRemoved(b *testing.B) {
	runExperiment(b, "table10")
}

func BenchmarkFigure4_TimeDilation(b *testing.B) {
	t := runExperiment(b, "figure4")
	last := t.Rows[len(t.Rows)-1]
	b.ReportMetric(cell(b, last[3]), "miss-increase-%@max-dilation")
}

func BenchmarkTable11_CodeDistribution(b *testing.B) {
	t := runExperiment(b, "table11")
	b.ReportMetric(cell(b, t.Rows[0][2]), "machine-dependent-%")
}

func BenchmarkTable12_PrivilegedOps(b *testing.B) {
	runExperiment(b, "table12")
}

// BenchmarkParallel_Figure2 measures the run scheduler's fan-out: each
// iteration regenerates Figure 2 serially (Parallelism 1) and again on
// the full worker pool (Parallelism 0 = GOMAXPROCS), reporting the
// wall-clock ratio as "speedup". Run with -cpu 1,4: at -cpu 1 the pool
// degenerates to the serial path and speedup sits near 1.0; at -cpu 4
// the 13 independent runs should overlap for a speedup well above 2x
// (provided the host actually has 4 cores — raising GOMAXPROCS past the
// hardware only adds scheduling, so a single-core host stays near 1.0).
func BenchmarkParallel_Figure2(b *testing.B) {
	timeRun := func(parallelism int) time.Duration {
		o := benchOptions()
		o.Parallelism = parallelism
		start := time.Now()
		if _, err := experiment.Figure2(o); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	var serial, parallel time.Duration
	for i := 0; i < b.N; i++ {
		serial += timeRun(1)
		parallel += timeRun(0)
	}
	b.ReportMetric(float64(serial)/float64(parallel), "speedup")
}

// --- Ablations: handler implementation cost (Sections 4.1, 4.3) ---

// benchHandlerModel measures whole-run slowdown under each miss-handler
// implementation: the original C handler (~2000 cycles), the optimized
// assembly handler (246), and hypothetical hardware assist (~50).
func benchHandlerModel(b *testing.B, model core.HandlerModel) {
	for i := 0; i < b.N; i++ {
		normal, err := tapeworm.NewSystem(tapeworm.SystemConfig{Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := normal.LoadWorkload("xlisp", 2000, 5, false); err != nil {
			b.Fatal(err)
		}
		if err := normal.Run(0); err != nil {
			b.Fatal(err)
		}

		sys, err := tapeworm.NewSystem(tapeworm.SystemConfig{Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		_, err = sys.AttachTapeworm(tapeworm.SimConfig{
			Mode: tapeworm.ModeICache,
			Cache: tapeworm.CacheConfig{Size: 2 << 10, LineSize: 16, Assoc: 1,
				Indexing: tapeworm.PhysIndexed},
			Sampling: tapeworm.FullSampling(),
			Handler:  model,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.LoadWorkload("xlisp", 2000, 5, true); err != nil {
			b.Fatal(err)
		}
		if err := sys.Run(0); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tapeworm.Slowdown(sys.Monitor(), normal.Monitor()), "slowdown")
	}
}

func BenchmarkAblation_HandlerOriginalC(b *testing.B) {
	benchHandlerModel(b, tapeworm.HandlerOriginalC)
}

func BenchmarkAblation_HandlerOptimized(b *testing.B) {
	benchHandlerModel(b, tapeworm.HandlerOptimized)
}

func BenchmarkAblation_HandlerHardwareAssist(b *testing.B) {
	benchHandlerModel(b, tapeworm.HandlerHardwareAssist)
}

// --- Microbenchmarks of the hot paths ---

// spinProgram fetches forever over an 8 KB loop; used to measure the
// machine's per-instruction simulation cost without workload-exit effects.
type spinProgram struct{ pc uint32 }

func (p *spinProgram) Next() tapeworm.Event {
	va := tapeworm.VAddr(0x0040_0000 + p.pc)
	p.pc = (p.pc + 4) & 8191
	return tapeworm.Event{Kind: tapeworm.EvRef,
		Ref: tapeworm.Ref{VA: va, Kind: tapeworm.IFetch}}
}

func BenchmarkMicro_MachineExecute(b *testing.B) {
	sys, err := tapeworm.NewSystem(tapeworm.SystemConfig{Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	sys.SpawnProgram("spin", &spinProgram{}, false, false)
	b.ResetTimer()
	if err := sys.Run(uint64(b.N)); err != nil {
		b.Fatal(err)
	}
	// One benchmark iteration = one simulated instruction executed.
}

// BenchmarkMicro_WorkloadExecute measures end-to-end simulation speed on a
// real workload, reported as nanoseconds per simulated instruction.
func BenchmarkMicro_WorkloadExecute(b *testing.B) {
	var instr uint64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		sys, err := tapeworm.NewSystem(tapeworm.SystemConfig{Seed: 9})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.LoadWorkload("eqntott", 4000, 9, false); err != nil {
			b.Fatal(err)
		}
		if err := sys.Run(0); err != nil {
			b.Fatal(err)
		}
		instr += sys.Monitor().Instructions
	}
	b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(instr), "ns/instr")
}

// BenchmarkSoloRun times one solo run of each paper workload in a 64 KB
// direct-mapped I-cache at scale 1000, once per program path: the
// reference interpreter, New (decode-ahead at any scale) and a compiled
// image (compiled once, outside the timer). Boot and attach are not
// timed.
func BenchmarkSoloRun(b *testing.B) {
	const seed = 1994
	simCfg := core.Config{
		Mode:     core.ModeICache,
		Cache:    cache.Config{Size: 64 << 10, LineSize: 16, Assoc: 1, Indexing: cache.PhysIndexed},
		Sampling: core.FullSampling(),
	}
	for _, name := range workload.Names() {
		spec, err := workload.ByName(name, 1000)
		if err != nil {
			b.Fatal(err)
		}
		compiled, err := workload.Compile(spec, seed)
		if err != nil {
			b.Fatal(err)
		}
		paths := []struct {
			name string
			prog func() (kernel.Program, error)
		}{
			{"reference", func() (kernel.Program, error) { return workload.NewReference(spec, seed) }},
			{"new", func() (kernel.Program, error) { return workload.New(spec, seed) }},
			{"compiled", func() (kernel.Program, error) { compiled.SeekOp(0); return compiled, nil }},
		}
		for _, path := range paths {
			b.Run(name+"/"+path.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					k, err := kernel.Boot(kernel.DefaultConfig(mach.DECstation5000_200(4096), seed))
					if err != nil {
						b.Fatal(err)
					}
					if _, err := core.Attach(k, simCfg); err != nil {
						b.Fatal(err)
					}
					prog, err := path.prog()
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					k.Spawn(spec.Name, prog, true, true)
					if err := k.Run(0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCompile times workload.Compile, generating one paper stream
// and recording it into a compiled image, for each workload at scale 400,
// where all eight compile. The "refused" case is xlisp at the standard
// scale, beyond the compile budget: Compile refuses it from the spec,
// before generating anything.
func BenchmarkCompile(b *testing.B) {
	const seed = 1994
	for _, name := range workload.Names() {
		spec, err := workload.ByName(name, 400)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := workload.Compile(spec, seed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	spec, err := workload.ByName("xlisp", workload.DefaultScale)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("refused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := workload.Compile(spec, seed); !errors.Is(err, workload.ErrStreamTooLarge) {
				b.Fatalf("xlisp@%d: err = %v, want ErrStreamTooLarge", workload.DefaultScale, err)
			}
		}
	})
}

// BenchmarkGangSweep times one cold mpeg_play cache-geometry sweep at
// scale 1000 — every grid point a member of one gang — at 48 points (one
// 64-bit member-mask word) and 96 (two).
func BenchmarkGangSweep(b *testing.B) {
	sizes := []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10}
	for _, lines := range [][]int{{16, 32}, {16, 32, 64, 128}} {
		grid := experiment.SweepConfig{Workload: "mpeg_play", Sizes: sizes, Assocs: []int{1, 2, 4, 8}, Lines: lines}
		b.Run("members="+strconv.Itoa(grid.Points()), func(b *testing.B) {
			o := experiment.Options{Scale: 1000, Seed: 1994, Trials: 1, Frames: 4096, Parallelism: 1}
			for i := 0; i < b.N; i++ {
				if _, err := experiment.Sweep(o, grid); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIntervalSweep times BenchmarkGangSweep's 48-point mpeg_play
// grid at scale 125 through representative-interval replay: 128
// intervals, 2 phases, 3000 instructions of warm-up. The phase plan and
// profile caches are dropped before each iteration, outside the timer, so
// every iteration pays the phase analysis and the profiling pass.
func BenchmarkIntervalSweep(b *testing.B) {
	grid := experiment.SweepConfig{Workload: "mpeg_play",
		Sizes:  []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10},
		Assocs: []int{1, 2, 4, 8}, Lines: []int{16, 32}}
	o := experiment.Options{Scale: 125, Seed: 1994, Trials: 1, Frames: 4096, Parallelism: 1,
		PhaseIntervals: 128, PhaseK: 2, PhaseWarmup: 3000}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		experiment.ResetIntervalProfiles()
		b.StartTimer()
		if _, err := experiment.Sweep(o, grid); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if _, groups := experiment.IntervalStats(); groups == 0 {
		b.Fatal("the sweep fell back to exhaustive replay")
	}
}

func BenchmarkMicro_SimulatedCacheInsert(b *testing.B) {
	c := cache.MustNew(cache.Config{Size: 16 << 10, LineSize: 16, Assoc: 2}, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(1, uint32(i*64))
	}
}

func BenchmarkMicro_SimulatedCacheAccess(b *testing.B) {
	c := cache.MustNew(cache.Config{Size: 16 << 10, LineSize: 16, Assoc: 2}, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(1, uint32(i%4096)*16)
	}
}
