package main

import (
	"fmt"
	"os"
	"time"

	"tapeworm/internal/cache"
	"tapeworm/internal/experiment"
	"tapeworm/internal/kernel"
	"tapeworm/internal/mem"
	"tapeworm/internal/rng"
)

// probeAccesses is the length of the seeded address stream each cache
// model is timed on.
const probeAccesses = 1 << 20

// probeCaches times the cache and TLB models on their public Access calls
// over a seeded address stream, and a checkpoint fork of a booted kernel.
// Every traced run reports them, whatever its workload.
func probeCaches(b *bench) error {
	r := rng.New(b.seed)
	addrs := make([]uint32, probeAccesses)
	for i := range addrs {
		// A 256 KB working set: a 64 KB cache both hits and misses.
		addrs[i] = uint32(r.Uint64n(256<<10)) &^ 3
	}
	for _, c := range []struct {
		name  string
		assoc int
	}{{"cache.access_ns.dm", 1}, {"cache.access_ns.assoc8", 8}} {
		cc, err := cache.New(cache.Config{Size: 64 << 10, LineSize: 16, Assoc: c.assoc,
			Indexing: cache.PhysIndexed, Replace: cache.LRU}, rng.New(b.seed))
		if err != nil {
			return err
		}
		if err := b.span(c.name, func() error {
			for _, a := range addrs {
				cc.Access(1, a)
			}
			return nil
		}); err != nil {
			return err
		}
		b.layer[c.name] = nsPer(last(b.led.durations(c.name)), probeAccesses)
	}
	tlb, err := cache.NewTLB(cache.R3000TLB(), rng.New(b.seed))
	if err != nil {
		return err
	}
	if err := b.span("cache.tlb", func() error {
		for _, a := range addrs {
			// Spread the stream over 1024 pages: 16x the TLB's reach.
			tlb.Access(1, mem.VAddr(a)<<4)
		}
		return nil
	}); err != nil {
		return err
	}
	b.layer["cache.tlb_access_ns"] = nsPer(last(b.led.durations("cache.tlb")), probeAccesses)

	k, err := boot(b, b.seed)
	if err != nil {
		return err
	}
	defer release(b, k)
	cp, err := spanV(b, "kernel.capture", func() (*kernel.Checkpoint, error) { return kernel.Capture(k, "perfbench") })
	if err != nil {
		return err
	}
	for i := 0; i < 5; i++ {
		if err := b.span("kernel.fork", func() error {
			fk, err := kernel.Fork(cp, kernelConfig(b.seed))
			if err != nil {
				return err
			}
			fk.ReleaseCheckpoint()
			return nil
		}); err != nil {
			return err
		}
	}
	b.layer["kernel.fork_us"] = median(b.led.durations("kernel.fork")) * 1e6
	return nil
}

// exhaustiveReference runs the sampled sweep's grid exhaustively and
// returns each point's misses per 1K instructions: the accuracy reference
// golden.json records once per seed.
func exhaustiveReference(b *bench) (map[string]string, error) {
	o := b.options()
	t, err := experiment.Sweep(o, wideGrid)
	if err != nil {
		return nil, err
	}
	return referenceCells(t), nil
}

// runProvenance checks whether a sampled sweep really sampled: it runs
// cmd/twsweep's default grid with 128 intervals, 2 phases and a
// 3000-instruction warm-up at scales 100 and 125, and compares each
// against the exhaustive sweep. A run that asked for sampling but ran no
// profiling pass, or returned the exhaustive numbers, is a fallback.
func runProvenance() error {
	grid := experiment.SweepConfig{Workload: sweepWorkload,
		Sizes: []int{1 << 10, 4 << 10, 16 << 10}, Assocs: []int{1, 2, 4}, Lines: []int{16, 32}}
	for _, scale := range []float64{100, 125} {
		o := experiment.Options{Scale: scale, Seed: 1994, Trials: 1, Frames: frames, Parallelism: 1}
		t0 := time.Now()
		exhaustive, err := experiment.Sweep(o, grid)
		if err != nil {
			return err
		}
		exS := time.Since(t0).Seconds()
		sampled := o
		sampled.PhaseIntervals, sampled.PhaseK, sampled.PhaseWarmup = phaseIntervals, phaseK, phaseWarmup
		experiment.ResetIntervalProfiles()
		t0 = time.Now()
		t, err := experiment.Sweep(sampled, grid)
		if err != nil {
			return err
		}
		smS := time.Since(t0).Seconds()
		profiles, _ := experiment.IntervalStats()
		identical := sameAsReference(t, referenceCells(exhaustive))
		verdict := "sampled"
		if profiles == 0 || identical {
			verdict = "FALLBACK (sampling requested, exhaustive output)"
		}
		fmt.Fprintf(os.Stdout, "scale %g: %d points, exhaustive %.2fs, sampled %.2fs, profiling passes %d, numbers identical to exhaustive %v: %s\n",
			scale, grid.Points(), exS, smS, profiles, identical, verdict)
	}
	return nil
}
