package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"tapeworm/internal/experiment"
	"tapeworm/internal/mem"
)

// A run repeats its workload's set-up calls at least minSetupReps times
// and until setupSeconds have passed, at most maxSetupReps times;
// setup_s reports the median.
const (
	minSetupReps = 3
	maxSetupReps = 10
	setupSeconds = 1.5
)

// tinyFactor divides every workload's size in the tests' smoke runs.
const tinyFactor = 40

// scenario is one benchmark workload: set-up calls repeated several
// times, then iterations of steps until the measuring time is spent.
type scenario struct {
	name, why string
	scale     float64 // workload scale divisor (workload.Spec.Scale)

	// setup runs the set-up calls a user pays before simulating: stream
	// compilation, boot, attach, phase analysis. It runs several times.
	setup func(b *bench) error
	// warm fills the simulator's process-wide caches the steps read (the
	// compiled-image cache), once, after the timed set-up repetitions.
	warm func(b *bench) error
	// reset returns process-wide result caches to cold before each
	// iteration, so every iteration simulates the same work.
	reset func()
	// steps make up one iteration; each call reports its operations
	// through bench.check and adds the instructions it simulated.
	steps []step
	// probe runs in traced runs only, after the iterations: the
	// decode-only / bare / instrumented passes and the counts that split
	// host time across the layers.
	probe func(b *bench) error
}

// step is one timed call sequence within an iteration.
type step struct {
	name string
	run  func(b *bench) error
}

// bench is one invocation of the runner.
type bench struct {
	w       *scenario
	seed    uint64 // simulation seed (from seedPool)
	tiny    bool
	traced  bool
	seconds float64

	golden    map[string]string // op -> recorded digest; nil in smoke mode
	reference map[string]string // accuracy reference cells (sweep-sampled)
	got       map[string]string // op -> digest seen (first iteration)

	attempted, failed int
	failures          []string

	instr     float64              // simulated instructions in the current iteration
	reps      int                  // set-up repetitions made
	stepTimes map[string][]float64 // step name -> host seconds per iteration
	// Segments split a step's time at the marks its calls report
	// (progress lines, instruction slices): per step, per iteration.
	stepSegs map[string][][]float64
	segs     []float64
	segStart time.Time
	led      *ledger
	layer    map[string]float64 // per-layer metrics (traced runs)
	counts   bool               // this iteration records per-iteration counts
}

// scale is the workload's scale divisor, shrunk in smoke mode.
func (b *bench) scale() float64 {
	if b.tiny {
		return b.w.scale * tinyFactor
	}
	return b.w.scale
}

// options is the experiment configuration every experiment call uses: the
// simulator's defaults for frames, strictly serial, with each completed
// run's progress line marking a timing segment.
func (b *bench) options() experiment.Options {
	return experiment.Options{Scale: b.scale(), Seed: b.seed, Trials: 1, Frames: frames, Parallelism: 1,
		Progress: func(string) { b.mark() }}
}

// mark ends the current timing segment of the running step.
func (b *bench) mark() {
	now := time.Now()
	b.segs = append(b.segs, now.Sub(b.segStart).Seconds())
	b.segStart = now
}

// check records one operation: its digest must equal the golden one.
func (b *bench) check(op, digest string) {
	b.attempted++
	if b.got == nil {
		b.got = map[string]string{}
	}
	if _, seen := b.got[op]; !seen {
		b.got[op] = digest
	}
	if b.golden == nil {
		if prev := b.got[op]; prev != digest {
			b.failOp(op, fmt.Errorf("digest %s differs from this run's first %s", digest, prev))
		}
		return
	}
	want, ok := b.golden[op]
	if !ok {
		b.failOp(op, fmt.Errorf("no golden digest"))
		return
	}
	if want != digest {
		b.failOp(op, fmt.Errorf("digest %s, golden %s", digest, want))
	}
}

// failOp counts an already-attempted operation as failed.
func (b *bench) failOp(op string, err error) {
	b.failed++
	if len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf("%s: %v", op, err))
	}
}

// runStep executes and times one step, turning an error or panic into
// one failed operation so the run goes on and reports it. It returns the
// step's host seconds.
func (b *bench) runStep(s step) float64 {
	runtime.GC() // no collection debt carried in from the previous step
	b.segs = nil
	start := time.Now()
	b.segStart = start
	defer func() {
		if r := recover(); r != nil {
			b.attempted++
			b.failOp(s.name, fmt.Errorf("panic: %v", r))
		}
		b.mark()
		b.stepSegs[s.name] = append(b.stepSegs[s.name], b.segs)
		b.stepTimes[s.name] = append(b.stepTimes[s.name], time.Since(start).Seconds())
	}()
	if err := s.run(b); err != nil {
		b.attempted++
		b.failOp(s.name, err)
	}
	return time.Since(start).Seconds()
}

// bestTime estimates a step's uncontended host time: the sum over its
// segments of each segment's fastest iteration. Neighbours on a shared
// host slow it in bursts shorter than a step; the fastest reading of
// each short segment discards them. Iterations that split differently
// fall back to the fastest whole step.
func (b *bench) bestTime(name string) float64 {
	iters := b.stepSegs[name]
	for _, segs := range iters {
		if len(segs) != len(iters[0]) {
			return minimum(b.stepTimes[name])
		}
	}
	total := 0.0
	for i := range iters[0] {
		best := math.Inf(1)
		for _, segs := range iters {
			best = math.Min(best, segs[i])
		}
		total += best
	}
	return total
}

// run performs the set-up repetitions and the measured iterations, and
// returns the end-to-end metrics (untraced) or the per-layer ledger
// (traced).
func (b *bench) run() (map[string]metric, error) {
	b.led = &ledger{self: map[string]float64{}, spans: map[string][]float64{}}
	b.layer = map[string]float64{}
	runtime.GC()
	start := time.Now()

	b.led.on = b.traced
	var setups []float64
	for len(setups) < minSetupReps || (len(setups) < maxSetupReps && sum(setups) < setupSeconds) {
		runtime.GC() // each repetition starts from the same clean heap
		t0 := time.Now()
		if err := b.w.setup(b); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", b.w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	b.reps = len(setups)
	if b.w.warm != nil {
		if err := b.w.warm(b); err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", b.w.name, err)
		}
	}

	// Iterations. A traced run alternates untraced and traced iterations
	// so the span cost shows as trace.overhead_share; only the traced
	// ones count towards the ledger's wall time.
	b.stepTimes = map[string][]float64{}
	b.stepSegs = map[string][][]float64{}
	var plainSums, tracedSums []float64
	var untracedWall float64
	iterInstr := 0.0
	loopStart := time.Now()
	for iter := 0; ; iter++ {
		tracedIter := b.traced && iter%2 == 1
		b.led.on = tracedIter
		b.counts = tracedIter && len(tracedSums) == 0
		if b.w.reset != nil {
			b.w.reset()
		}
		runtime.GC()
		var before counterSnap
		if b.counts {
			before = snapCounters()
		}
		b.instr = 0
		iterStart := time.Now()
		iterTime := 0.0
		for _, s := range b.w.steps {
			iterTime += b.runStep(s)
		}
		if b.counts {
			snapCounters().since(before, b.layer)
		}
		iterInstr = b.instr
		if tracedIter {
			tracedSums = append(tracedSums, iterTime)
		} else {
			plainSums = append(plainSums, iterTime)
			if b.traced {
				untracedWall += time.Since(iterStart).Seconds()
			}
		}
		done := time.Since(loopStart).Seconds() >= b.seconds
		if done && (!b.traced || len(tracedSums) > 0) {
			break
		}
	}

	setupS := median(setups)
	simS := 0.0
	for _, s := range b.w.steps {
		simS += b.bestTime(s.name)
	}
	if !b.traced {
		return map[string]metric{
			"wall_s":         {minimum(setups) + simS, "s"},
			"setup_s":        {setupS, "s"},
			"sim_refs_per_s": {iterInstr / simS, "1/s"},
			"peak_rss_mb":    {peakRSSMB(), "MB"},
		}, nil
	}

	b.led.on = true
	if b.w.probe != nil {
		if err := b.w.probe(b); err != nil {
			return nil, fmt.Errorf("%s probe: %w", b.w.name, err)
		}
	}
	if err := probeCaches(b); err != nil {
		return nil, fmt.Errorf("cache probe: %w", err)
	}
	tracedWall := time.Since(start).Seconds() - untracedWall
	b.layer["trace.coverage"] = b.led.selfTotal() / tracedWall
	b.layer["trace.overhead_share"] = median(tracedSums)/median(plainSums) - 1
	if b.attempted > 0 {
		b.layer["fail_frac"] = float64(b.failed) / float64(b.attempted)
	}
	for name, d := range b.stepTimes {
		if _, ok := perLayerUnit("experiment.driver_s." + name); ok {
			b.layer["experiment.driver_s."+name] = median(d)
		}
	}
	if n := float64(len(tracedSums)); n > 0 {
		b.layer["experiment.render_s"] = sum(b.led.durations("experiment.render")) / n
	}
	b.layer["kernel.boot_us"] = median(b.led.durations("kernel.boot")) * 1e6
	b.layer["core.attach_s"] = median(b.led.durations("core.attach"))
	return b.layerMetrics()
}

// layerMetrics renders the ledger, every declared per-layer metric
// present (zero where the workload does not reach that layer).
func (b *bench) layerMetrics() (map[string]metric, error) {
	out := map[string]metric{}
	for _, m := range perLayer {
		out[m.name] = metric{b.layer[m.name], m.unit}
	}
	for name := range b.layer {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("ledger computed undeclared metric %q", name)
		}
	}
	return out, nil
}

// --- spans ---

// ledger records spans around calls into the simulator's packages. A
// span's self time (its duration minus its child spans) is charged to
// the layer named by the span's first dotted component.
type ledger struct {
	on    bool
	stack []frame
	self  map[string]float64   // layer -> self seconds
	spans map[string][]float64 // span name -> durations
}

type frame struct {
	start time.Time
	child time.Duration
}

func (l *ledger) selfTotal() float64 {
	t := 0.0
	for _, s := range l.self {
		t += s
	}
	return t
}

// durations returns the recorded durations of one span name.
func (l *ledger) durations(name string) []float64 { return l.spans[name] }

// span times fn as one call into layer (the name's first component) when
// the ledger is on, and just calls it otherwise.
func (b *bench) span(name string, fn func() error) error {
	l := b.led
	if !l.on {
		return fn()
	}
	l.stack = append(l.stack, frame{start: time.Now()})
	err := fn()
	f := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	d := time.Since(f.start)
	l.self[layerOf(name)] += (d - f.child).Seconds()
	l.spans[name] = append(l.spans[name], d.Seconds())
	if len(l.stack) > 0 {
		l.stack[len(l.stack)-1].child += d
	}
	return err
}

// spanV is span for calls that return a value.
func spanV[T any](b *bench, name string, fn func() (T, error)) (T, error) {
	var v T
	err := b.span(name, func() error {
		var err error
		v, err = fn()
		return err
	})
	return v, err
}

func layerOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}

// --- process counters ---

// counterSnap is a reading of the process-wide counters the simulator
// exposes, taken around one traced iteration.
type counterSnap struct {
	poolGets, poolReuses uint64
	ckImages, ckForks    uint64
	mallocBytes          uint64
	gcCycles             uint32
}

func snapCounters() counterSnap {
	var s counterSnap
	s.poolGets, s.poolReuses = mem.PoolStats()
	s.ckImages, s.ckForks, _ = experiment.CheckpointStats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocBytes, s.gcCycles = ms.TotalAlloc, ms.NumGC
	return s
}

// since writes the per-iteration deltas into the ledger.
func (s counterSnap) since(before counterSnap, layer map[string]float64) {
	gets := s.poolGets - before.poolGets
	layer["mem.pool_gets"] = float64(gets)
	if gets > 0 {
		layer["mem.pool_reuse_ratio"] = float64(s.poolReuses-before.poolReuses) / float64(gets)
	}
	layer["kernel.checkpoint_images"] += float64(s.ckImages - before.ckImages)
	layer["kernel.checkpoint_forks"] += float64(s.ckForks - before.ckForks)
	layer["go.alloc_mb"] = float64(s.mallocBytes-before.mallocBytes) / 1e6
	layer["go.gc_cycles"] = float64(s.gcCycles - before.gcCycles)
	addResultCacheStats(layer)
}

// addResultCacheStats adds the result store's counters (which reset with
// the store) to the ledger.
func addResultCacheStats(layer map[string]float64) {
	rc := experiment.ResultCacheStats()
	layer["resultcache.hits"] += float64(rc.Hits)
	layer["resultcache.misses"] += float64(rc.Misses)
	layer["resultcache.joins"] += float64(rc.Joins)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minimum(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}
