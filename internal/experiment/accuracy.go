package experiment

import (
	"fmt"

	"tapeworm/internal/cache"
	"tapeworm/internal/cache2000"
	"tapeworm/internal/core"
	"tapeworm/internal/kernel"
	"tapeworm/internal/mem"
	"tapeworm/internal/stats"
	"tapeworm/internal/workload"
)

// Table3 summarizes the workload suite (descriptions).
func Table3(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "table3",
		Title:   "workload summary",
		Columns: []string{"workload", "description"},
		Notes: []string{
			"synthetic reproductions parameterized to the paper's Table 3/4 characteristics",
		},
	}
	for _, s := range workload.Specs(o.Scale) {
		t.Rows = append(t.Rows, []string{s.Name, s.Description})
	}
	return t, nil
}

// Table4 characterizes each workload on the simulated machine: instruction
// counts, run time, per-component instruction shares, and task counts.
// The paper's fractions are of *time* measured by Monster; instruction
// shares are the equivalent observable here.
func Table4(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "table4",
		Title: "workload and operating system summary (uninstrumented runs)",
		Columns: []string{"workload", "instr (10^6)", "run time (s)",
			"kernel", "BSD server", "X server", "user tasks", "task count"},
		Notes: []string{
			fmt.Sprintf("instruction counts are 1/%.0f of the paper's (scale divisor)", o.Scale),
			"component percentages are instruction shares; paper reports time shares",
		},
	}
	specs := workload.Specs(o.Scale)
	jobs := make([]runJob, len(specs))
	for i, spec := range specs {
		name := spec.Name
		jobs[i] = runJob{
			cfg: normalConfig(o, spec, 0),
			progress: func(runResult) string {
				return fmt.Sprintf("table4: %s done", name)
			},
		}
	}
	results, err := runAll(o, jobs)
	if err != nil {
		return nil, err
	}
	for i, spec := range specs {
		res := results[i]
		total := float64(res.Snap.Instructions)
		p := func(x uint64) string { return fmt.Sprintf("%.1f%%", 100*float64(x)/total) }
		t.Rows = append(t.Rows, []string{
			spec.Name,
			millions(total),
			f2(res.Seconds),
			p(res.Comp[kernel.CompKernel]),
			p(res.BSDInstr),
			p(res.XInstr),
			p(res.Comp[kernel.CompUser]),
			fmt.Sprint(res.Tasks),
		})
	}
	return t, nil
}

// table6Cache is the configuration of Table 6: 4 KB direct-mapped,
// 4-word lines, physically indexed.
func table6Cache() *core.Config {
	return dmICache(4<<10, cache.PhysIndexed, core.FullSampling())
}

// Table6 isolates the miss contributions of each workload component by
// running it in a dedicated cache, then measures all activity sharing one
// cache; the excess of the shared run over the sum of dedicated runs is
// cache interference.
func Table6(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "table6",
		Title: "miss count (10^6) and miss ratio contributions for different workload components, 4K I-cache",
		Columns: []string{"workload", "from traces", "user tasks", "servers",
			"kernel", "all activity", "interference"},
		Notes: []string{
			"each cell: misses in millions (miss ratio vs total instructions in parentheses)",
			"dedicated direct-mapped 4 KB cache with 4-word lines per component; All Activity shares one cache",
			"From Traces uses Pixie+Cache2000 and is only possible for single-task workloads",
		},
	}
	specs := workload.Specs(o.Scale)
	// Per-spec job layout: an optional trace run, three dedicated-cache
	// component runs, then the shared-cache run.
	type layout struct{ trace, dedicated, all int }
	var jobs []runJob
	layouts := make([]layout, len(specs))
	for i, spec := range specs {
		name := spec.Name
		layouts[i].trace = -1
		if spec.Tasks == 1 {
			layouts[i].trace = len(jobs)
			jobs = append(jobs, runJob{cfg: runConfig{
				spec: spec, seed: o.Seed, pageSeed: o.Seed, frames: o.Frames,
				trace: &cache2000.Config{
					Cache: cache.Config{Size: 4 << 10, LineSize: 16, Assoc: 1},
					Kinds: []mem.RefKind{mem.IFetch},
				},
			}})
		}
		layouts[i].dedicated = len(jobs)
		for _, comp := range []struct {
			user, servers, kern bool
		}{{true, false, false}, {false, true, false}, {false, false, true}} {
			jobs = append(jobs, runJob{cfg: runConfig{
				spec: spec, seed: o.Seed, pageSeed: o.Seed, frames: o.Frames,
				tw:      table6Cache(),
				simUser: comp.user, simServers: comp.servers, simKernel: comp.kern,
				gang: true,
			}})
		}
		layouts[i].all = len(jobs)
		jobs = append(jobs, runJob{
			cfg: runConfig{
				spec: spec, seed: o.Seed, pageSeed: o.Seed, frames: o.Frames,
				tw:      table6Cache(),
				simUser: true, simServers: true, simKernel: true,
				gang: true,
			},
			progress: func(runResult) string {
				return fmt.Sprintf("table6: %s done", name)
			},
		})
	}
	results, err := runAll(o, jobs)
	if err != nil {
		return nil, err
	}
	for i, spec := range specs {
		row := []string{spec.Name}
		cell := func(misses uint64, totalInstr uint64) string {
			return fmt.Sprintf("%s (%.3f)", millions(float64(misses)),
				float64(misses)/float64(totalInstr))
		}
		if idx := layouts[i].trace; idx >= 0 {
			row = append(row, cell(results[idx].C2kMisses, results[idx].Snap.Instructions))
		} else {
			row = append(row, "")
		}
		var dedicatedSum uint64
		for j := 0; j < 3; j++ {
			res := results[layouts[i].dedicated+j]
			row = append(row, cell(res.TwStats.Misses, res.Snap.Instructions))
			dedicatedSum += res.TwStats.Misses
		}
		all := results[layouts[i].all]
		row = append(row, cell(all.TwStats.Misses, all.Snap.Instructions))
		var interference uint64
		if all.TwStats.Misses > dedicatedSum {
			interference = all.TwStats.Misses - dedicatedSum
		}
		row = append(row, cell(interference, all.Snap.Instructions))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// sampleOffset spreads trial sample patterns evenly over the den possible
// rotations, so that averaging across trials covers all cache sets: the
// kernel sits at fixed physical addresses, and repeatedly sampling the
// same sets would bias its (large) miss contribution.
func sampleOffset(trial, den, trials int) int {
	if trials <= 0 || den <= 1 {
		return trial
	}
	step := den / trials
	if step < 1 {
		step = 1
	}
	return (trial * step) % den
}

// varianceRow renders a stats.Summary in the paper's Table 7/10 format.
func varianceRow(name string, sum stats.Summary) []string {
	return []string{
		name,
		millions(sum.Mean),
		millions(sum.Stddev), pct(sum.StddevPct()),
		millions(sum.Min), pct(sum.MinPct()),
		millions(sum.Max), pct(sum.MaxPct()),
		millions(sum.Range), pct(sum.RangePct()),
	}
}

var varianceColumns = []string{"workload", "misses mean(10^6)", "s", "(s%)",
	"min", "(min%)", "max", "(max%)", "range", "(range%)"}

// trialJobs describes o.Trials runs of the given Tapeworm configuration,
// varying the frame-allocator seed and the sample-pattern offset per
// trial (the two real sources of run-to-run variation). The last trial
// carries the progress line, so it fires once the group is nearly done.
func trialJobs(o Options, spec workload.Spec, mkCfg func(trial int) *core.Config,
	all bool, progress string) []runJob {
	jobs := make([]runJob, o.Trials)
	for trial := 0; trial < o.Trials; trial++ {
		jobs[trial] = runJob{cfg: runConfig{
			spec: spec, seed: o.Seed,
			pageSeed: o.Seed ^ uint64(trial+1)*0x9e3779b97f4a7c15,
			frames:   o.Frames,
			tw:       mkCfg(trial),
			simUser:  true, simServers: all, simKernel: all,
			gang: true, // keyed on miss counts: configs of a trial share one execution
		}}
	}
	if progress != "" {
		jobs[o.Trials-1].progress = func(runResult) string { return progress }
	}
	return jobs
}

// twEsts extracts the sampling-scaled miss estimates from a block of
// trial results.
func twEsts(results []runResult) []float64 {
	out := make([]float64, len(results))
	for i, r := range results {
		out[i] = r.TwEst
	}
	return out
}

// Table7 measures total run-to-run variation: 16 K-byte physically-indexed
// caches with 1/8 set sampling, all activity included. Both page
// allocation and the sample pattern vary per trial, as on a real system
// where the trap sequence is impossible to reproduce.
func Table7(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "table7",
		Title:   fmt.Sprintf("variation in measured performance (%d trials, 1/8 sampling, 16K phys-indexed)", o.Trials),
		Columns: varianceColumns,
		Notes: []string{
			"all activity (kernel and servers) included; misses are sampling-scaled estimates",
			"physical page allocation and the sample set pattern vary per trial",
		},
	}
	specs := workload.Specs(o.Scale)
	var jobs []runJob
	for _, spec := range specs {
		jobs = append(jobs, trialJobs(o, spec, func(trial int) *core.Config {
			return dmICache(16<<10, cache.PhysIndexed,
				core.Sampling{Num: 1, Den: 8, Offset: sampleOffset(trial, 8, o.Trials)})
		}, true, fmt.Sprintf("table7: %s done", spec.Name))...)
	}
	results, err := runAll(o, jobs)
	if err != nil {
		return nil, err
	}
	for i, spec := range specs {
		ests := twEsts(results[i*o.Trials : (i+1)*o.Trials])
		t.Rows = append(t.Rows, varianceRow(spec.Name, stats.Summarize(ests)))
	}
	return t, nil
}

// Table8 isolates sampling-induced variation: espresso alone (no kernel or
// servers) in virtually-indexed caches, with and without 1/8 sampling.
// Without sampling the virtually-indexed simulation is exactly
// reproducible and variance is zero.
func Table8(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	spec, err := mustSpec(o, "espresso")
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "table8",
		Title:   fmt.Sprintf("variation due to set sampling (espresso, virtually-indexed, %d trials)", o.Trials),
		Columns: []string{"cache size", "sampling", "misses mean(10^6)", "s(10^6)", "(s%)"},
		Notes: []string{
			"espresso process only; virtual indexing removes page-allocation variation",
			"unsampled runs are exactly reproducible (zero variance)",
		},
	}
	sizes := []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10}
	var jobs []runJob
	for _, size := range sizes {
		for _, sampled := range []bool{false, true} {
			size, sampled := size, sampled
			mk := func(trial int) *core.Config {
				s := core.FullSampling()
				if sampled {
					s = core.Sampling{Num: 1, Den: 8, Offset: sampleOffset(trial, 8, o.Trials)}
				}
				return dmICache(size, cache.VirtIndexed, s)
			}
			progress := ""
			if sampled { // last group of the size
				progress = fmt.Sprintf("table8: %s done", sizeKB(size))
			}
			jobs = append(jobs, trialJobs(o, spec, mk, false, progress)...)
		}
	}
	results, err := runAll(o, jobs)
	if err != nil {
		return nil, err
	}
	group := 0
	for _, size := range sizes {
		for _, sampled := range []bool{false, true} {
			ests := twEsts(results[group*o.Trials : (group+1)*o.Trials])
			group++
			sum := stats.Summarize(ests)
			label := "none"
			if sampled {
				label = "1/8"
			}
			t.Rows = append(t.Rows, []string{
				sizeKB(size), label, millions(sum.Mean), millions(sum.Stddev),
				pct(sum.StddevPct()),
			})
		}
	}
	return t, nil
}

// Table9 isolates page-allocation variation: mpeg_play alone, unsampled,
// in physically- versus virtually-indexed caches, with the frame allocator
// reseeded per trial. Only the physically-indexed results vary; at 4 KB
// (one page) they cannot, because every allocation looks the same to a
// page-sized cache.
func Table9(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	spec, err := mustSpec(o, "mpeg_play")
	if err != nil {
		return nil, err
	}
	trials := o.Trials
	if trials > 4 {
		trials = 4 // the paper uses 4 trials here
	}
	t := &Table{
		ID:      "table9",
		Title:   fmt.Sprintf("variation due to page allocation (mpeg_play, no sampling, %d trials)", trials),
		Columns: []string{"indexing", "cache size", "misses mean(10^6)", "s(10^6)", "(s%)"},
		Notes: []string{
			"page allocation cannot matter at 4K: with 4 KB pages, all allocations overlap identically",
			"variance peaks when cache size is near the workload's text size [Kessler91]",
		},
	}
	rows, err := table9Rows(o, spec, trials)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.indexing.String(), sizeKB(r.size), millions(r.misses.Mean),
			millions(r.misses.Stddev), pct(r.misses.StddevPct()),
		})
	}
	return t, nil
}

// table9Row is one Table 9 configuration: its estimated misses summarized
// over the page-allocation trials.
type table9Row struct {
	indexing cache.Indexing
	size     int
	misses   stats.Summary
}

// table9Rows runs Table 9's configurations, trials runs each with a
// different page allocation, and summarizes each configuration's trials.
func table9Rows(o Options, spec workload.Spec, trials int) ([]table9Row, error) {
	sub := o
	sub.Trials = trials
	var rows []table9Row
	var jobs []runJob
	for _, indexing := range []cache.Indexing{cache.PhysIndexed, cache.VirtIndexed} {
		for _, size := range []int{4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10} {
			indexing, size := indexing, size
			rows = append(rows, table9Row{indexing: indexing, size: size})
			jobs = append(jobs, trialJobs(sub, spec, func(int) *core.Config {
				return dmICache(size, indexing, core.FullSampling())
			}, false, fmt.Sprintf("table9: %s %s done", indexing, sizeKB(size)))...)
		}
	}
	results, err := runAll(o, jobs)
	if err != nil {
		return nil, err
	}
	for i := range rows {
		rows[i].misses = stats.Summarize(twEsts(results[i*trials : (i+1)*trials]))
	}
	return rows, nil
}

// Table10 repeats Table 7's measurement with both variance sources
// removed: virtually-indexed caches, no sampling. What little remains
// comes from scheduling interleaving in the shared cache.
func Table10(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "table10",
		Title:   fmt.Sprintf("measurement variation removed (virtually-indexed, no sampling, %d trials)", o.Trials),
		Columns: varianceColumns,
		Notes: []string{
			"same measurement as Table 7 but configured for virtually-indexed caches without set sampling",
		},
	}
	specs := workload.Specs(o.Scale)
	var jobs []runJob
	for _, spec := range specs {
		jobs = append(jobs, trialJobs(o, spec, func(int) *core.Config {
			return dmICache(16<<10, cache.VirtIndexed, core.FullSampling())
		}, true, fmt.Sprintf("table10: %s done", spec.Name))...)
	}
	results, err := runAll(o, jobs)
	if err != nil {
		return nil, err
	}
	for i, spec := range specs {
		ests := twEsts(results[i*o.Trials : (i+1)*o.Trials])
		t.Rows = append(t.Rows, varianceRow(spec.Name, stats.Summarize(ests)))
	}
	return t, nil
}

// Figure4 measures the time-dilation bias: slowing the system down raises
// the clock-interrupt count per workload instruction, whose handler
// pollutes the shared cache. Dilation is varied by the degree of set
// sampling, exactly as in the paper; the least-dilated run is the 0%
// baseline.
func Figure4(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	spec, err := mustSpec(o, "mpeg_play")
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "figure4",
		Title:   "error due to time dilation (mpeg_play, all activity, 4K phys-indexed I-cache)",
		Columns: []string{"sampling", "dilation (slowdown)", "est. misses (10^6)", "increase"},
		Notes: []string{
			"dilation varied by changing the degree of sampling; misses are sampling-scaled estimates",
			"increase measured against the least-dilated configuration",
		},
	}
	// One run per sample-pattern offset: across the complete offset
	// ensemble every cache set is sampled equally often, so the mean
	// estimate is unbiased and the remaining signal is dilation.
	// Page allocation stays fixed to isolate the dilation effect.
	dens := []int{16, 8, 4, 2, 1}
	jobs := []runJob{{cfg: normalConfig(o, spec, 0)}}
	for _, den := range dens {
		den := den
		for offset := 0; offset < den; offset++ {
			s := core.Sampling{Num: 1, Den: den, Offset: offset}
			j := runJob{cfg: runConfig{
				spec: spec, seed: o.Seed, pageSeed: o.Seed, frames: o.Frames,
				tw:      dmICache(4<<10, cache.PhysIndexed, s),
				simUser: true, simServers: true, simKernel: true,
			}}
			if offset == den-1 {
				j.progress = func(runResult) string {
					return fmt.Sprintf("figure4: sampling 1/%d done", den)
				}
			}
			jobs = append(jobs, j)
		}
	}
	results, err := runAll(o, jobs)
	if err != nil {
		return nil, err
	}
	normal := results[0]
	type point struct {
		label    string
		slowdown float64
		misses   float64
	}
	var points []point
	next := 1
	for _, den := range dens {
		var sumSlow, sumMiss float64
		for offset := 0; offset < den; offset++ {
			res := results[next]
			next++
			sumSlow += slowdown(res, normal)
			sumMiss += res.TwEst
		}
		points = append(points, point{
			label:    core.Sampling{Num: 1, Den: den}.String(),
			slowdown: sumSlow / float64(den),
			misses:   sumMiss / float64(den),
		})
	}
	base := points[0].misses
	for _, p := range points {
		t.Rows = append(t.Rows, []string{
			p.label, f2(p.slowdown), millions(p.misses),
			fmt.Sprintf("%.1f%%", stats.PercentIncrease(p.misses, base)),
		})
	}
	return t, nil
}
