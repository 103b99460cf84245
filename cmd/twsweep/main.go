// Command twsweep enumerates an instruction-cache design-space grid —
// every (size, associativity, line size) combination — for one workload,
// and renders the miss counts, miss ratios and simulation slowdowns as a
// table. It is the flagship client of the content-addressed result cache:
// all grid points share one ganged execution when cold, and a repeated
// identical invocation with -result-cache-dir is served entirely from the
// persisted store, simulating nothing.
//
// Examples:
//
//	twsweep -workload mpeg_play                         # default 3×3×2 grid
//	twsweep -sizes 1K,2K,4K,8K -assocs 1,2,4 -lines 16,32
//	twsweep -result-cache-dir /tmp/rc                   # warm across processes
//	twsweep -result-cache=false                         # force re-simulation
//
// The table is byte-identical at any -parallel, with the result cache on
// or off, and whether results come fresh, from the in-process tier, or
// from a persisted directory (TestDifferential's result-cache rows in
// internal/experiment).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"tapeworm/internal/experiment"
	"tapeworm/internal/workload"
)

func main() {
	var (
		wl       = flag.String("workload", "mpeg_play", "workload name")
		sizes    = flag.String("sizes", "1K,4K,16K", "comma-separated cache sizes (e.g. 1K,8K,1M)")
		assocs   = flag.String("assocs", "1,2,4", "comma-separated associativities (0 = fully associative)")
		lines    = flag.String("lines", "16,32", "comma-separated line sizes in bytes")
		scale    = flag.Float64("scale", 100, "workload scale divisor")
		seed     = flag.Uint64("seed", 1994, "master seed")
		frames   = flag.Int("frames", 8192, "physical memory frames")
		parallel = flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS, 1 = serial)")
		outPath  = flag.String("o", "", "also write the table to this file")
		quiet    = flag.Bool("q", false, "suppress progress lines")

		resultCache    = flag.Bool("result-cache", true, "serve repeated identical configurations from the content-addressed result cache (results are byte-identical either way)")
		resultCacheDir = flag.String("result-cache-dir", "", "persist results to this directory and reload them across invocations (requires -result-cache)")

		phaseIntervals = flag.Int("phase-intervals", 0, "slice the workload into this many intervals and simulate one representative per phase (0 = exhaustive; results are extrapolated and error-bound-gated, not exact)")
		phaseK         = flag.Int("phase-k", 0, "number of behavioral phases (k-means clusters); requires -phase-intervals")
		phaseWarmup    = flag.Int("phase-warmup", 0, "instructions of simulator warm-up replayed ahead of each representative window; requires -phase-intervals")
	)
	flag.Parse()

	sizeList, err := parseSizeList(*sizes)
	check(err)
	assocList, err := parseIntList(*assocs)
	check(err)
	lineList, err := parseIntList(*lines)
	check(err)

	opts := experiment.Options{
		Scale: *scale, Seed: *seed, Trials: 1, Frames: *frames,
		Parallelism: *parallel, ResultCache: *resultCache, ResultCacheDir: *resultCacheDir,
		PhaseIntervals: *phaseIntervals, PhaseK: *phaseK, PhaseWarmup: *phaseWarmup,
	}
	check(opts.Validate())
	if !*quiet {
		opts.Progress = func(line string) { fmt.Fprintf(os.Stderr, "  %s\n", line) }
	}
	sc := experiment.SweepConfig{
		Workload: *wl, Sizes: sizeList, Assocs: assocList, Lines: lineList,
	}
	check(sc.Validate())

	start := time.Now()
	table, err := experiment.Sweep(opts, sc)
	check(err)
	spec, err := workload.ByName(sc.Workload, opts.Scale)
	check(err)
	if note := experiment.PhaseNote(opts, []workload.Spec{spec}); note != "" {
		table.Notes = append(table.Notes, note)
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		check(err)
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}
	fmt.Fprintln(out, table.Render())

	st := experiment.ResultCacheStats()
	fmt.Fprintf(os.Stderr, "twsweep: %d configurations in %.2fs (result cache: %d hits, %d misses, %d loads)\n",
		sc.Points(), time.Since(start).Seconds(), st.Hits, st.Misses, st.Loads)
}

// parseSizeList parses "1K,8K,1M" into byte counts.
func parseSizeList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		mult := 1
		switch {
		case strings.HasSuffix(part, "K"), strings.HasSuffix(part, "k"):
			mult, part = 1<<10, part[:len(part)-1]
		case strings.HasSuffix(part, "M"), strings.HasSuffix(part, "m"):
			mult, part = 1<<20, part[:len(part)-1]
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad size %q", part)
		}
		out = append(out, n*mult)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty size list %q", s)
	}
	return out, nil
}

// parseIntList parses "1,2,4" into ints.
func parseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list %q", s)
	}
	return out, nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "twsweep:", err)
		os.Exit(1)
	}
}
