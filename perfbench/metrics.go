package main

// layerMetric declares one reported metric. The lists below must agree
// with BENCHMARK.json (the runner checks its output on every run, and the
// tests check the declarations without running).
type layerMetric struct {
	name, unit, better string
}

// endToEnd lists the figures an untraced run reports: wall_s is the
// fastest set-up repetition plus every step's best time (bench.bestTime),
// setup_s the median set-up repetition, sim_refs_per_s one iteration's
// simulated instructions over the steps' best times, and peak_rss_mb the
// process's resident-set high-water mark.
var endToEnd = []layerMetric{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"sim_refs_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer is the ledger, grouped by the package each entry measures.
// Metrics a workload does not reach read 0 on that workload.
var perLayer = []layerMetric{
	// workload: stream compilation and decode.
	{"workload.compile_s", "s", "lower"},
	{"workload.interp_instr_share", "ratio", "lower"},
	{"workload.decode_ns_per_ref.compiled", "ns", "lower"},
	{"workload.decode_ns_per_ref.interp", "ns", "lower"},
	{"workload.image_mb", "MB", "lower"},
	// mach, kernel services included: the bare run minus the decode.
	{"mach.bare_ns_per_ref", "ns", "lower"},
	{"mach.fastpath_word_share", "ratio", "higher"},
	{"mach.xl_hits", "count", "higher"},
	// kernel
	{"kernel.boot_us", "us", "lower"},
	{"kernel.fork_us", "us", "lower"},
	{"kernel.runs", "count", "lower"},
	{"kernel.syscalls", "count", "lower"},
	{"kernel.tasks_spawned", "count", "lower"},
	{"kernel.checkpoint_images", "count", "lower"},
	{"kernel.checkpoint_forks", "count", "higher"},
	// core: the trap handler, solo and ganged.
	{"core.attach_s", "s", "lower"},
	{"core.traps", "count", "lower"},
	{"core.ns_per_trap", "ns", "lower"},
	{"core.gang_members.narrow", "count", "higher"},
	{"core.gang_members.wide", "count", "higher"},
	{"core.gang_ns_per_member_trap.narrow", "ns", "lower"},
	{"core.gang_ns_per_member_trap.wide", "ns", "lower"},
	// cache models, timed on their public Access calls.
	{"cache.access_ns.dm", "ns", "lower"},
	{"cache.access_ns.assoc8", "ns", "lower"},
	{"cache.tlb_access_ns", "ns", "lower"},
	// cache2000, with Pixie-style annotation feeding it.
	{"cache2000.ns_per_ref", "ns", "lower"},
	// phase
	{"phase.analyze_s", "s", "lower"},
	{"phase.replayed_instr_share", "ratio", "lower"},
	{"phase.fallbacks", "count", "lower"},
	{"miss_ratio_err", "ratio", "lower"},
	// resultcache
	{"resultcache.hits", "count", "higher"},
	{"resultcache.misses", "count", "lower"},
	{"resultcache.joins", "count", "lower"},
	{"resultcache.warm_s", "s", "lower"},
	// mem pools
	{"mem.pool_gets", "count", "lower"},
	{"mem.pool_reuse_ratio", "ratio", "higher"},
	// experiment functions, host seconds per call
	{"experiment.driver_s.sweep.narrow", "s", "lower"},
	{"experiment.driver_s.sweep.wide", "s", "lower"},
	{"experiment.driver_s.sweep.warm", "s", "lower"},
	{"experiment.driver_s.sweep.sampled", "s", "lower"},
	{"experiment.driver_s.table6", "s", "lower"},
	{"experiment.driver_s.ext-fragmentation", "s", "lower"},
	{"experiment.render_s", "s", "lower"},
	// Go runtime, per iteration.
	{"go.alloc_mb", "MB", "lower"},
	{"go.gc_cycles", "count", "lower"},
	// the ledger itself
	{"trace.coverage", "ratio", "higher"},
	{"trace.overhead_share", "ratio", "lower"},
	{"fail_frac", "ratio", "lower"},
}

func perLayerUnit(name string) (string, bool) {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit, true
		}
	}
	return "", false
}
