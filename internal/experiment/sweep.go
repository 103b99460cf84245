package experiment

// Design-space sweep: the flagship result-cache client. A sweep
// enumerates a cache-geometry grid for one workload — every (size,
// associativity, line size) combination — as one gang-eligible job set,
// so a cold sweep is one shared execution per identity and a warm sweep
// (same grid, cache on) is served entirely from the result store.

import (
	"fmt"

	"tapeworm/internal/cache"
	"tapeworm/internal/core"
)

// SweepConfig describes a cache-geometry grid.
type SweepConfig struct {
	// Workload names the workload spec driving every point.
	Workload string
	// Sizes are the cache sizes in bytes (each a positive power of two).
	Sizes []int
	// Assocs are the associativities (0 = fully associative).
	Assocs []int
	// Lines are the line sizes in bytes.
	Lines []int
	// Sampling applies to every point (zero value = full simulation).
	Sampling core.Sampling
}

// Validate rejects empty or structurally invalid grids before any run is
// scheduled, point by point so the error names the offending geometry.
func (sc SweepConfig) Validate() error {
	if sc.Workload == "" {
		return fmt.Errorf("experiment: sweep needs a workload")
	}
	if len(sc.Sizes) == 0 || len(sc.Assocs) == 0 || len(sc.Lines) == 0 {
		return fmt.Errorf("experiment: sweep grid is empty (need sizes, assocs and lines)")
	}
	for _, size := range sc.Sizes {
		for _, assoc := range sc.Assocs {
			for _, line := range sc.Lines {
				cfg := cache.Config{Size: size, LineSize: line, Assoc: assoc}
				if err := cfg.Validate(); err != nil {
					return fmt.Errorf("experiment: sweep point %s/%d-way/%dB: %w",
						sizeKB(size), assoc, line, err)
				}
			}
		}
	}
	return nil
}

// Points returns the grid's configuration count.
func (sc SweepConfig) Points() int {
	return len(sc.Sizes) * len(sc.Assocs) * len(sc.Lines)
}

// Sweep simulates the instruction-cache miss behaviour of every grid
// point, plus the uninstrumented baseline for the slowdown column. All
// points share one execution identity modulo the simulated geometry, so
// they run as a single gang, and the baseline rides in it (runAll): a
// cold sweep is one execution of the stream. With Options.ResultCache
// set, repeated sweeps are served from the store and a grid extension
// simulates only the new points.
func Sweep(o Options, sc SweepConfig) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	spec, err := mustSpec(o, sc.Workload)
	if err != nil {
		return nil, err
	}
	sampling := sc.Sampling
	if sampling == (core.Sampling{}) {
		sampling = core.FullSampling()
	}

	type point struct {
		size, assoc, line int
	}
	var points []point
	jobs := []runJob{{cfg: normalConfig(o, spec, 0)}}
	for _, size := range sc.Sizes {
		for _, assoc := range sc.Assocs {
			for _, line := range sc.Lines {
				p := point{size, assoc, line}
				points = append(points, p)
				cfg := dmICache(size, cache.PhysIndexed, sampling)
				cfg.Cache.Assoc = assoc
				cfg.Cache.LineSize = line
				jobs = append(jobs, runJob{
					cfg: runConfig{
						spec: spec, seed: o.Seed, pageSeed: o.Seed, frames: o.Frames,
						tw: cfg, simUser: true,
						// Ledger-modeled slowdowns, identical solo or
						// ganged (as in Figure 3), so the whole grid can
						// share one execution.
						gang: true,
					},
					progress: func(runResult) string {
						return fmt.Sprintf("sweep: %s %d-way %dB done",
							sizeKB(p.size), p.assoc, p.line)
					},
				})
			}
		}
	}

	results, err := runAll(o, jobs)
	if err != nil {
		return nil, err
	}
	normal := results[0]

	t := &Table{
		ID:    "sweep",
		Title: fmt.Sprintf("I-cache design-space sweep, %s (%d configurations)", sc.Workload, len(points)),
		Columns: []string{"cache size", "assoc", "line", "misses", "est. misses",
			"misses/1K instr", "slowdown"},
		Notes: []string{
			"every configuration observes the identical reference stream (one ganged execution)",
			"tables are byte-identical with the result cache on or off, at any parallelism",
		},
	}
	for i, p := range points {
		r := results[i+1]
		assoc := fmt.Sprintf("%d-way", p.assoc)
		if p.assoc == 0 {
			assoc = "full"
		}
		t.Rows = append(t.Rows, []string{
			sizeKB(p.size),
			assoc,
			fmt.Sprintf("%dB", p.line),
			fmt.Sprintf("%d", r.TwStats.Misses),
			fmt.Sprintf("%.0f", r.TwEst),
			f3(1000 * float64(r.TwStats.Misses) / float64(r.Snap.Instructions)),
			f2(slowdown(r, normal)),
		})
	}
	return t, nil
}
