// Command twbench regenerates the paper's evaluation: every table and
// figure of Section 4, printed as aligned text tables.
//
// Usage:
//
//	twbench                         # run the full suite at scale 100
//	twbench -run figure2,table6     # selected experiments
//	twbench -scale 1000 -trials 4   # coarser, faster
//	twbench -parallel 1             # strictly serial execution
//	twbench -list                   # list experiment IDs
//	twbench -o report.txt           # also write the report to a file
//	twbench -metrics m.json -trace t.jsonl   # machine-readable telemetry
//	twbench -fastpath=false         # force the per-reference execution path
//	twbench -compile=false          # run the workloads on the reference interpreter
//	twbench -gang=false             # run every configuration as its own execution
//	twbench -result-cache           # serve repeated identical runs from the result cache
//	twbench -result-cache-dir /tmp/rc   # persist results across invocations
//	twbench -bench-json pr4         # time fast vs. baseline and ganged vs. solo, write BENCH_pr4.json
//
// Each experiment's independent machine runs execute on a worker pool
// (default GOMAXPROCS workers; -parallel overrides). Results, progress
// lines and telemetry commits are all assembled in submission order, so
// the report, the metrics file and the trace stream are byte-identical
// at any parallelism.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"tapeworm/internal/experiment"
	"tapeworm/internal/telemetry"
)

func main() {
	var (
		runIDs   = flag.String("run", "", "comma-separated experiment IDs (default: all)")
		scale    = flag.Float64("scale", 100, "workload scale divisor (100 = standard evaluation)")
		trials   = flag.Int("trials", 16, "trials for variance tables")
		seed     = flag.Uint64("seed", 1994, "master seed")
		frames   = flag.Int("frames", 8192, "physical memory frames")
		parallel = flag.Int("parallel", 0, "worker pool size for independent runs (0 = GOMAXPROCS, 1 = serial)")
		outPath  = flag.String("o", "", "also write the report to this file")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		quiet    = flag.Bool("q", false, "suppress progress lines")

		metricsPath = flag.String("metrics", "", "write a JSON metrics report to this file")
		tracePath   = flag.String("trace", "", "write a JSONL trap-event trace to this file")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")

		resultCache    = flag.Bool("result-cache", false, "serve repeated identical runs from the content-addressed result cache (results are byte-identical either way)")
		resultCacheDir = flag.String("result-cache-dir", "", "persist results to this directory and reload them across invocations (requires -result-cache)")

		fastpath        = flag.Bool("fastpath", true, "use the batched hit fast path (results are byte-identical either way)")
		compile         = flag.Bool("compile", true, "replay compiled or decode-ahead workload programs; false runs the reference interpreter (results are byte-identical either way)")
		gang            = flag.Bool("gang", true, "group gang-eligible runs into shared executions (results are byte-identical either way)")
		benchLabel      = flag.String("bench-json", "", "time each experiment with the fast path on and off plus a hot-loop microbenchmark and the ganged accuracy-sweep suite, and write BENCH_<label>.json")
		verifyIntervals = flag.Bool("verify-intervals", false, "run the interval-sampling measurement alone and exit non-zero unless it meets the CI gates (speedup >= 5, miss-ratio error <= 0.02)")

		phaseIntervals = flag.Int("phase-intervals", 0, "slice each workload into this many intervals and simulate one representative per phase (0 = exhaustive; results are extrapolated and error-bound-gated, not exact)")
		phaseK         = flag.Int("phase-k", 0, "number of behavioral phases (k-means clusters); requires -phase-intervals")
		phaseWarmup    = flag.Int("phase-warmup", 0, "instructions of simulator warm-up replayed ahead of each representative window; requires -phase-intervals")
	)
	flag.Parse()

	if *list {
		for _, id := range experiment.IDs() {
			fmt.Printf("%-9s %s\n", id, experiment.Describe(id))
		}
		return
	}

	opts := experiment.Options{
		Scale: *scale, Seed: *seed, Trials: *trials, Frames: *frames,
		Parallelism: *parallel, NoFastPath: !*fastpath, NoCompile: !*compile,
		NoGang: !*gang, ResultCache: *resultCache, ResultCacheDir: *resultCacheDir,
		PhaseIntervals: *phaseIntervals, PhaseK: *phaseK, PhaseWarmup: *phaseWarmup,
	}
	if err := opts.Validate(); err != nil {
		fail(err)
	}
	if !*quiet {
		opts.Progress = func(line string) { fmt.Fprintf(os.Stderr, "  %s\n", line) }
	}

	if *verifyIntervals {
		if err := verifyIntervalGates(opts); err != nil {
			fail(err)
		}
		return
	}
	if *benchLabel != "" {
		ids := experiment.IDs()
		if *runIDs != "" {
			ids = strings.Split(*runIDs, ",")
		}
		if err := writeBenchJSON(*benchLabel, ids, opts); err != nil {
			fail(err)
		}
		return
	}

	var coll *telemetry.Collector
	var traceFile *os.File
	if *metricsPath != "" || *tracePath != "" || *debugAddr != "" {
		tcfg := telemetry.Config{}
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			if err != nil {
				fail(err)
			}
			traceFile, tcfg.Trace = f, f
		}
		coll = telemetry.New(tcfg)
		opts.Telemetry = coll
	}
	if *debugAddr != "" {
		bound, err := telemetry.ServeDebug(*debugAddr, coll)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "twbench: debug server on http://%s/debug/pprof/\n", bound)
	}
	if *resultCache && opts.Telemetry != nil {
		fmt.Fprintln(os.Stderr, "twbench: note: -result-cache is bypassed while telemetry is on (cache hits simulate nothing, so they emit no events)")
	}

	ids := experiment.IDs()
	if *runIDs != "" {
		ids = strings.Split(*runIDs, ",")
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}

	fmt.Fprintf(out, "Tapeworm II evaluation reproduction (scale 1/%.0f, %d trials, seed %d)\n\n",
		*scale, *trials, *seed)
	for _, id := range ids {
		id := strings.TrimSpace(id)
		fn, err := experiment.ByID(id)
		if err != nil {
			fail(err)
		}
		coll.SetScope(id)
		start := time.Now()
		_, groups0 := experiment.IntervalStats()
		table, err := fn(opts)
		if err != nil {
			fail(fmt.Errorf("%s: %w", id, err))
		}
		_, groups1 := experiment.IntervalStats()
		if note := experiment.PhaseNote(opts, groups1-groups0); note != "" {
			table.Notes = append(table.Notes, note)
		}
		fmt.Fprintln(out, table.Render())
		fmt.Fprintf(out, "(%s completed in %.1fs)\n\n", id, time.Since(start).Seconds())
	}

	if *metricsPath != "" {
		f, err := os.Create(*metricsPath)
		if err != nil {
			fail(err)
		}
		if err := coll.WriteMetrics(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
	if traceFile != nil {
		if err := coll.Err(); err != nil {
			fail(err)
		}
		if err := traceFile.Close(); err != nil {
			fail(err)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "twbench:", err)
	os.Exit(1)
}
