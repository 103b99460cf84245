// Command tracesim runs the trace-driven baseline: a Pixie-style annotated
// workload feeding a Cache2000-style simulator, either on the fly or
// through a trace file. It exists to reproduce the paper's comparisons and
// to demonstrate what the baseline can and cannot see (single user task,
// no kernel or servers) and what it can simulate that traps cannot (write
// buffers).
//
// Examples:
//
//	tracesim -workload mpeg_play -size 4K                 # on-the-fly
//	tracesim -workload xlisp -capture /tmp/x.trace        # write a trace
//	tracesim -replay /tmp/x.trace -size 4K                # simulate from file
//	tracesim -workload eqntott -size 8K -writebuffer 4    # store-buffer model
//	tracesim -workload xlisp -result-cache -result-cache-dir /tmp/rc
//
// With -result-cache, a repeated identical on-the-fly run is served from
// the content-addressed result cache and prints byte-identical output
// without building a system; -capture and -replay always run fresh.
package main

import (
	"bytes"
	"encoding/gob"
	"flag"
	"fmt"
	"os"

	"tapeworm"
	"tapeworm/internal/cache"
	"tapeworm/internal/cache2000"
	"tapeworm/internal/core"
	"tapeworm/internal/mem"
	"tapeworm/internal/resultcache"
	"tapeworm/internal/trace"
	"tapeworm/internal/workload"
)

// traceResult is everything the on-the-fly report prints, detached from
// the live simulator so it can round-trip through the result cache.
type traceResult struct {
	Processed uint64
	Hits      uint64
	Misses    uint64
	Cycles    uint64
	HasWB     bool
	WBStores  uint64
	WBStalls  uint64
	Seconds   float64
}

func encodeTraceResult(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(v.(traceResult))
	return buf.Bytes(), err
}

func decodeTraceResult(b []byte) (any, error) {
	var r traceResult
	err := gob.NewDecoder(bytes.NewReader(b)).Decode(&r)
	return r, err
}

// traceDigest is the content address of one on-the-fly tracesim run.
func traceDigest(spec workload.Spec, seed uint64, cfg cache2000.Config) resultcache.Digest {
	h := resultcache.NewHasher()
	h.WriteString("tracesim.run/v1")
	h.WriteUint64(core.PhysicsVersion)
	spec.HashInto(h)
	h.WriteUint64(seed)
	cfg.HashInto(h)
	return h.Sum()
}

func main() {
	var (
		wl      = flag.String("workload", "mpeg_play", "workload to annotate")
		scale   = flag.Float64("scale", 400, "workload scale divisor")
		seed    = flag.Uint64("seed", 1, "workload seed")
		sizeKB  = flag.Int("size", 4, "cache size in KB")
		line    = flag.Int("line", 16, "line size in bytes")
		assoc   = flag.Int("assoc", 1, "associativity")
		dataToo = flag.Bool("data", false, "trace data references as well as instruction fetches")
		capture = flag.String("capture", "", "write the trace to this file instead of simulating")
		replay  = flag.String("replay", "", "simulate from this trace file instead of running a workload")
		wbDepth = flag.Int("writebuffer", 0, "also simulate a store buffer of this depth (0 = off)")

		resultCache    = flag.Bool("result-cache", false, "serve a previously simulated identical on-the-fly run from the content-addressed result cache (results are byte-identical either way)")
		resultCacheDir = flag.String("result-cache-dir", "", "persist results to this directory and reload them across invocations (requires -result-cache)")
	)
	flag.Parse()

	if *resultCacheDir != "" && !*resultCache {
		check(fmt.Errorf("-result-cache-dir %q requires -result-cache", *resultCacheDir))
	}
	if *resultCache && (*capture != "" || *replay != "") {
		fmt.Fprintln(os.Stderr, "tracesim: note: -result-cache only applies to on-the-fly simulation, not -capture or -replay")
	}

	cfg := cache2000.Config{
		Cache: cache.Config{Size: *sizeKB << 10, LineSize: *line, Assoc: *assoc},
	}
	if !*dataToo {
		cfg.Kinds = []mem.RefKind{mem.IFetch}
	}
	if *wbDepth > 0 {
		cfg.WriteBuffer = &cache2000.WriteBufferConfig{Depth: *wbDepth, DrainCycles: 20}
	}

	if *replay != "" {
		f, err := os.Open(*replay)
		check(err)
		defer f.Close()
		buf, err := trace.Read(f)
		check(err)
		sim, err := cache2000.New(cfg)
		check(err)
		sim.Run(buf)
		res := traceResult{
			Processed: uint64(buf.Len()),
			Hits:      sim.Hits(), Misses: sim.Misses(), Cycles: sim.Cycles(),
		}
		if wb := sim.WriteBuffer(); wb != nil {
			res.HasWB = true
			res.WBStores, res.WBStalls = wb.Stats()
		}
		report(res)
		return
	}

	if *capture != "" {
		sys, err := tapeworm.NewSystem(tapeworm.SystemConfig{Seed: *seed})
		check(err)
		task, err := sys.LoadWorkload(*wl, *scale, *seed, false)
		check(err)
		buf, err := sys.CaptureTrace(task, !*dataToo)
		check(err)
		check(sys.Run(0))
		f, err := os.Create(*capture)
		check(err)
		check(buf.Write(f))
		check(f.Close())
		fmt.Printf("captured %d references from %s to %s\n", buf.Len(), *wl, *capture)
		return
	}

	// The whole system — kernel boot included — lives inside simulate, so
	// a result-cache hit builds nothing at all.
	simulate := func() (traceResult, error) {
		sys, err := tapeworm.NewSystem(tapeworm.SystemConfig{Seed: *seed})
		if err != nil {
			return traceResult{}, err
		}
		task, err := sys.LoadWorkload(*wl, *scale, *seed, false)
		if err != nil {
			return traceResult{}, err
		}
		sim, err := sys.AnnotatePixie(task, cfg)
		if err != nil {
			return traceResult{}, err
		}
		if err := sys.Run(0); err != nil {
			return traceResult{}, err
		}
		res := traceResult{
			Processed: sim.Processed(),
			Hits:      sim.Hits(),
			Misses:    sim.Misses(),
			Cycles:    sim.Cycles(),
			Seconds:   sys.Seconds(),
		}
		if wb := sim.WriteBuffer(); wb != nil {
			res.HasWB = true
			res.WBStores, res.WBStalls = wb.Stats()
		}
		return res, nil
	}
	run := simulate
	if *resultCache {
		store := resultcache.New(1, encodeTraceResult, decodeTraceResult)
		spec, err := workload.ByName(*wl, *scale)
		check(err)
		d := traceDigest(spec, *seed, cfg)
		run = func() (traceResult, error) {
			v, err := store.Get(d, *resultCacheDir, func() (any, error) { return simulate() })
			res, _ := v.(traceResult)
			return res, err
		}
	}
	res, err := run()
	check(err)
	report(res)
	fmt.Printf("simulated seconds (dilated by tracing): %.3f\n", res.Seconds)
}

func report(res traceResult) {
	// The divisor is hits+misses (what the simulator processed), not the
	// headline count, which for -replay is the trace length instead.
	missRatio := float64(res.Misses) / float64(max64(1, res.Hits+res.Misses))
	fmt.Printf("addresses processed: %d\n", res.Processed)
	fmt.Printf("hits %d / misses %d (miss ratio %.4f)\n",
		res.Hits, res.Misses, missRatio)
	fmt.Printf("simulation cycles: %d (%.1f per address)\n",
		res.Cycles, float64(res.Cycles)/float64(max64(1, res.Hits+res.Misses)))
	if res.HasWB {
		fmt.Printf("write buffer: %d stores, %d stall cycles\n", res.WBStores, res.WBStalls)
	}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracesim:", err)
		os.Exit(1)
	}
}
