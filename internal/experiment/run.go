package experiment

import (
	"fmt"
	"sync/atomic"

	"tapeworm/internal/cache"
	"tapeworm/internal/cache2000"
	"tapeworm/internal/core"
	"tapeworm/internal/kernel"
	"tapeworm/internal/mach"
	"tapeworm/internal/mem"
	"tapeworm/internal/monster"
	"tapeworm/internal/pixie"
	"tapeworm/internal/sched"
	"tapeworm/internal/telemetry"
	"tapeworm/internal/workload"
)

// runConfig describes one simulated machine run.
type runConfig struct {
	spec     workload.Spec
	seed     uint64 // workload stream seed
	pageSeed uint64 // frame allocator seed (the Table 9 variance knob)
	frames   int

	tw         *core.Config // nil: no Tapeworm attached
	simUser    bool         // register workload fork tree
	simServers bool         // register X/BSD server pages
	simKernel  bool         // register kernel pages
	reference  bool         // run on the reference executor (Options.reference)

	// gang opts this run into the ganged execution path: it runs as a
	// core.AttachGang member (ledgered traps) even when alone, so its
	// results are identical whether or not runAll groups it with others.
	// Only runs keyed on miss counts opt in; measured-slowdown runs
	// (Figures 2 and 4) need the real dilating machine and stay solo.
	gang bool

	trace *cache2000.Config // non-nil: annotate with Pixie feeding Cache2000

	//twvet:nohash observability — telemetry records the run, it does not steer it
	tel *telemetry.Run // non-nil: record this run's metrics and events
}

// runResult carries everything the experiments read out of a run.
type runResult struct {
	snap     monster.Snapshot
	seconds  float64
	comp     [kernel.NumComponents]uint64 // instructions per component
	bsdInstr uint64
	xInstr   uint64
	tasks    int

	twStats  core.Stats
	twByComp [kernel.NumComponents]uint64
	twEst    float64 // sampling-scaled miss estimate
	mech     string  // trap mechanism name (instrumented runs only)

	c2kHits, c2kMisses uint64
	pixieRefs          uint64
}

// run executes one workload to completion on a freshly booted machine.
func run(rc runConfig) (runResult, error) {
	var res runResult
	if rc.frames <= 0 {
		// Callers validate Options.Frames up front (Options.Validate);
		// this guard only fills the default for internal configs that
		// leave frames unset on purpose.
		rc.frames = 8192
	}
	kcfg := kernel.DefaultConfig(mach.DECstation5000_200(rc.frames), rc.seed)
	kcfg.PageSeed = rc.pageSeed
	kcfg.Telemetry = rc.tel
	kcfg.Machine.NoFastPath = rc.reference
	k, err := bootKernel(kcfg)
	if err != nil {
		return res, err
	}

	var tw *core.Tapeworm
	if rc.tw != nil {
		tw, err = core.Attach(k, *rc.tw)
		if err != nil {
			return res, err
		}
	}

	prog, err := newWorkloadProgram(rc)
	if err != nil {
		return res, err
	}
	task := k.Spawn(rc.spec.Name, prog, rc.simUser, rc.simUser)

	if tw != nil {
		if err := simulateSystem(k, tw, rc); err != nil {
			return res, err
		}
	}

	var c2k *cache2000.Simulator
	var ann *pixie.Annotator
	if rc.trace != nil {
		c2k, err = cache2000.New(*rc.trace)
		if err != nil {
			return res, err
		}
		c2k.BindMachine(k.Machine())
		ann = pixie.NewOnTheFly(k.Machine(), c2k)
		ann.IOnly = len(rc.trace.Kinds) == 1 && rc.trace.Kinds[0] == mem.IFetch
		ann.Annotate(k, task.ID)
	}

	if err := k.Run(0); err != nil {
		return res, err
	}

	m := k.Machine()
	res.snap = monster.Snap(m)
	res.seconds = m.Seconds(m.Cycles())
	res.comp = k.ComponentInstructions()
	if t := k.Server(kernel.BSDServer); t != nil {
		res.bsdInstr = t.Instructions
	}
	if t := k.Server(kernel.XServer); t != nil {
		res.xInstr = t.Instructions
	}
	res.tasks = k.Stats().UserSpawned
	if tw != nil {
		res.twStats = tw.Stats()
		res.twByComp = tw.MissesByComponent()
		res.twEst = tw.EstimatedMisses()
		res.mech = tw.MechanismName()
	}
	if c2k != nil {
		res.c2kHits, res.c2kMisses = c2k.Hits(), c2k.Misses()
		res.pixieRefs = ann.Refs()
	}
	if rc.tel != nil {
		k.ReportTelemetry()
		if tw != nil {
			tw.ReportTelemetry()
		}
		if c2k != nil {
			rc.tel.SetCounter("c2k_hits", res.c2kHits)
			rc.tel.SetCounter("c2k_misses", res.c2kMisses)
			rc.tel.SetCounter("pixie_refs", res.pixieRefs)
		}
	}
	return res, nil
}

// executions counts the kernels booted for executions — solo runs, gangs
// and interval profiling passes — so tests can check how many executions
// an experiment shares.
var executions atomic.Uint64

// bootKernel boots a fresh kernel for one execution.
func bootKernel(kcfg kernel.Config) (*kernel.Kernel, error) {
	executions.Add(1)
	return kernel.Boot(kcfg)
}

// runGang executes a group of runs that share one workload execution: one
// booted machine in ledgered-trap mode, one core.Gang of simulators, one
// pass over the reference stream. Every rcs[i] must agree on the gangKey
// runAll groups by; tw and the component flags are per member. Each
// member's statistics are identical to what a group of one would
// produce; the per-member snapshot adds the member's private overhead
// ledger to the shared (undilated) machine clock, which is exactly the
// clock its solo ledgered run shows. Riders (trailing configs without a
// simulator) attach nothing and take the shared readout before any
// ledger is added: the uninstrumented run of the same stream.
func runGang(rcs []runConfig) ([]runResult, error) {
	rc0 := rcs[0]
	members := rcs[:memberCount(rcs)]
	if rc0.frames <= 0 {
		rc0.frames = 8192
	}
	kcfg := kernel.DefaultConfig(mach.DECstation5000_200(rc0.frames), rc0.seed)
	kcfg.PageSeed = rc0.pageSeed
	// Kernel- and machine-level telemetry (trap events, machine counters)
	// describe the shared execution; they ride on the first member's run.
	kcfg.Telemetry = rc0.tel
	kcfg.Machine.NoFastPath = rc0.reference
	k, err := bootKernel(kcfg)
	if err != nil {
		return nil, err
	}

	cfgs := make([]core.Config, len(members))
	for i, rc := range members {
		cfgs[i] = *rc.tw
	}
	g, err := core.AttachGang(k, cfgs)
	if err != nil {
		return nil, err
	}
	prog, err := newWorkloadProgram(rc0)
	if err != nil {
		return nil, err
	}
	// Every member applies its own component flags: the workload task is
	// spawned unsimulated and each member sets its own bits on it.
	task := k.Spawn(rc0.spec.Name, prog, false, false)
	for i, tw := range g.Members() {
		tw.SetTelemetry(rcs[i].tel)
		if err := tw.Attributes(task.ID, rcs[i].simUser, rcs[i].simUser); err != nil {
			return nil, err
		}
		if err := simulateSystem(k, tw, rcs[i]); err != nil {
			return nil, err
		}
	}

	if err := k.Run(0); err != nil {
		return nil, err
	}

	m := k.Machine()
	base := monster.Snap(m)
	shared := runResult{
		snap:    base,
		seconds: m.Seconds(base.Cycles),
		comp:    k.ComponentInstructions(),
		tasks:   k.Stats().UserSpawned,
	}
	if t := k.Server(kernel.BSDServer); t != nil {
		shared.bsdInstr = t.Instructions
	}
	if t := k.Server(kernel.XServer); t != nil {
		shared.xInstr = t.Instructions
	}
	if rc0.tel != nil {
		k.ReportTelemetry()
	}

	out := make([]runResult, len(rcs))
	for i := range out {
		out[i] = shared
	}
	for i, tw := range g.Members() {
		res := shared
		ledger := tw.LedgerCycles()
		res.snap.Cycles += ledger
		res.snap.OverheadCycles += ledger
		res.seconds = m.Seconds(res.snap.Cycles)
		res.twStats = tw.Stats()
		res.twByComp = tw.MissesByComponent()
		res.twEst = tw.EstimatedMisses()
		res.mech = tw.MechanismName()
		if tel := rcs[i].tel; tel != nil {
			tw.ReportTelemetry()
			tel.SetTiming(res.snap.Cycles, res.snap.OverheadCycles, res.snap.Instructions)
		}
		out[i] = res
	}
	return out, nil
}

// memberCount returns how many of a gang group's configs are simulator
// members; the rest are riders, which runAll places last.
func memberCount(rcs []runConfig) int {
	n := len(rcs)
	for n > 0 && rcs[n-1].tw == nil {
		n--
	}
	return n
}

// simulateSystem applies rc's server and kernel component flags to tw
// through tw_attributes.
func simulateSystem(k *kernel.Kernel, tw *core.Tapeworm, rc runConfig) error {
	if rc.simServers {
		for _, kind := range []kernel.ServerKind{kernel.BSDServer, kernel.XServer} {
			if st := k.Server(kind); st != nil {
				if err := tw.Attributes(st.ID, true, false); err != nil {
					return err
				}
			}
		}
	}
	if rc.simKernel {
		return tw.Attributes(mem.KernelTask, true, false)
	}
	return nil
}

// newWorkloadProgram builds the run's workload program: the reference
// interpreter on the reference executor, else the compiled replay (cached
// across the trials, gang members and baselines that share a (spec, seed)
// stream), or decode-ahead for a stream whose spec is beyond the compile
// budget, with no compile attempted. All three are stream-identical, so
// every table is byte-identical either way (TestDifferential's reference
// rows).
func newWorkloadProgram(rc runConfig) (kernel.Program, error) {
	if rc.reference {
		return workload.NewReference(rc.spec, rc.seed)
	}
	return workload.NewPlanned(rc.spec, rc.seed)
}

// normalConfig describes an uninstrumented run of the workload,
// establishing the "Normal Workload Run Time" denominator of the slowdown
// metric. When the same job set gangs instrumented runs of the same
// execution identity (Figure 3, Sweep), runAll lets this run ride in
// that gang instead of executing the stream a second time; its result
// and result digest are the same either way.
func normalConfig(o Options, spec workload.Spec, trial uint64) runConfig {
	return runConfig{
		spec:     spec,
		seed:     o.Seed,
		pageSeed: o.Seed ^ (trial * 0x9e3779b9),
		frames:   o.Frames,
	}
}

// runJob pairs a run configuration with an optional progress formatter,
// invoked (serialized) when the run completes.
type runJob struct {
	cfg      runConfig
	progress func(runResult) string
}

// gangKey is the grouping key for ganged execution: jobs agreeing on all
// of it observe the same reference stream and can share one machine run.
// The component flags are not part of it: tw_attributes bits are
// member-local inside a gang (core.Gang), so members simulating different
// components share one execution.
type gangKey struct {
	spec           string
	seed, pageSeed uint64
	frames         int
}

func keyOf(rc runConfig) gangKey {
	return gangKey{rc.spec.Name, rc.seed, rc.pageSeed, rc.frames}
}

// runAll executes the jobs' machine runs on a sched worker pool bounded by
// o.Parallelism, and returns the results in submission order. Jobs whose
// configs opt into ganging (runConfig.gang) and share a gangKey run as ONE
// machine execution driving all their simulators (core.AttachGang); gangs
// are the unit of scheduling. A gang-opted job always takes the ganged
// path — alone on the reference executor, which suppresses grouping — so
// its results are byte-identical whether grouping is on or off, at any
// parallelism.
//
// An uninstrumented job (no simulator, no tracer) whose gangKey matches a
// gang rides in that gang: the gang's machine clock is undilated, so its
// pre-ledger readout IS the uninstrumented run (runGang). Riders follow
// the members in their group and keep their own (non-gang) result
// digest. On the reference executor or under telemetry they run solo, as
// a run's trace must come from its own execution.
//
// Because results are index-ordered, every table assembled from them is
// byte-identical to a serial execution. Progress lines and telemetry
// commits are re-sequenced into original submission order through a
// held-back heap — one line per configuration even when a gang completes
// many at once; when neither is requested the scheduler runs with no
// completion callback at all.
func runAll(o Options, jobs []runJob) ([]runResult, error) {
	ganged := func(rc runConfig) bool {
		return !o.reference && rc.gang && rc.tw != nil && rc.trace == nil
	}
	rides := make(map[gangKey]bool) // execution identities a baseline may ride
	if o.Telemetry == nil {
		for _, j := range jobs {
			if ganged(j.cfg) {
				rides[keyOf(j.cfg)] = true
			}
		}
	}
	// Partition into execution groups preserving original job indices.
	groups := make([][]int, 0, len(jobs))
	byKey := make(map[gangKey]int)
	var riders []int
	for i, j := range jobs {
		rc := j.cfg
		switch {
		case ganged(rc):
			key := keyOf(rc)
			if gi, ok := byKey[key]; ok {
				groups[gi] = append(groups[gi], i)
				continue
			}
			byKey[key] = len(groups)
			groups = append(groups, []int{i})
		case rc.tw == nil && rc.trace == nil && rides[keyOf(rc)]:
			riders = append(riders, i)
		default:
			groups = append(groups, []int{i})
		}
	}
	for _, i := range riders {
		gi := byKey[keyOf(jobs[i].cfg)]
		groups[gi] = append(groups[gi], i)
	}

	tels := make([]*telemetry.Run, len(jobs))
	sj := make([]sched.Job[[]runResult], len(groups))
	for gi := range groups {
		idx := groups[gi]
		sj[gi] = func() ([]runResult, error) {
			// Telemetry runs are named by original job index, so solo and
			// ganged runs of the same sweep produce the same run names.
			rcs := make([]runConfig, len(idx))
			for mi, i := range idx {
				rcs[mi] = jobs[i].cfg
				rcs[mi].reference = o.reference
				rcs[mi].tel = o.Telemetry.StartRun(fmt.Sprintf("run%d", i))
				tels[i] = rcs[mi].tel
			}
			// A cache hit simulates nothing, so it can emit no trap
			// events; with telemetry on, every run stays fresh.
			if o.ResultCache && o.Telemetry == nil {
				return runGroupCached(o, rcs)
			}
			if !rcs[0].gang {
				r, err := run(rcs[0])
				return []runResult{r}, err
			}
			return execGang(o, rcs)
		}
	}

	var done func(int, []runResult)
	if o.Progress != nil || o.Telemetry != nil {
		// sched serializes done calls under a mutex, which is the external
		// serialization the Orderer requires; the same mutex makes the
		// tels[i] writes in the workers visible here. The Orderer runs
		// over original job indices: a finished gang Puts one entry per
		// member, and each member's progress line and telemetry commit
		// still appear in submission order.
		ord := telemetry.NewOrderer[runResult](func(i int, r runResult) {
			o.Telemetry.Commit(tels[i])
			if o.Progress != nil {
				if f := jobs[i].progress; f != nil {
					o.Progress(f(r))
				}
			}
		})
		done = func(gi int, rs []runResult) {
			for mi, i := range groups[gi] {
				ord.Put(i, rs[mi])
			}
		}
	}
	grs, err := sched.Run(o.Parallelism, sj, done)
	if err != nil {
		return nil, err
	}
	out := make([]runResult, len(jobs))
	for gi, idx := range groups {
		for mi, i := range idx {
			out[i] = grs[gi][mi]
		}
	}
	return out, nil
}

// slowdown implements the paper's definition against a matching normal
// run: overhead time over normal run time.
func slowdown(instrumented, normal runResult) float64 {
	return monster.Slowdown(instrumented.snap, normal.snap)
}

// dmICache builds the workhorse configuration of the evaluation: a
// direct-mapped instruction cache with 4-word (16-byte) lines.
func dmICache(sizeBytes int, indexing cache.Indexing, s core.Sampling) *core.Config {
	return &core.Config{
		Mode: core.ModeICache,
		Cache: cache.Config{
			Size: sizeBytes, LineSize: 16, Assoc: 1, Indexing: indexing,
		},
		Sampling: s,
	}
}

// mustSpec fetches a workload spec at the option scale.
func mustSpec(o Options, name string) (workload.Spec, error) {
	spec, err := workload.ByName(name, o.Scale)
	if err != nil {
		return workload.Spec{}, fmt.Errorf("experiment: %w", err)
	}
	return spec, nil
}
