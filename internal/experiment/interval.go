package experiment

// Representative-interval simulation. An exhaustive ganged run simulates
// every reference of the workload; most of that work is redundant when
// the stream cycles through a few behavioral phases. The interval path
// splits the work in two:
//
//  1. One UNINSTRUMENTED profiling pass per (spec, seed, pageSeed,
//     frames, phase-geometry) identity, memoized in a process-wide
//     resultcache.Cache. It fast-forwards the compiled stream at full
//     replay speed, captures a mid-run checkpoint (kernel.CaptureAt) at
//     each representative's warm-up start, records the
//     machine-instruction marks of each representative's measure window,
//     runs to completion, and keeps the exhaustive uninstrumented result
//     as the shared base. The resulting profile owns its checkpoints, so
//     they are cached and evicted with it. Gang ledgered mode keeps the
//     machine clock undilated, so this base is exactly the shared
//     execution an exhaustive gang would observe — and exactly the
//     uninstrumented baseline a rider in the group (runAll) needs.
//
//  2. Per representative, a short INSTRUMENTED replay: fork the
//     checkpoint (kernel.ForkRun), attach the whole gang with
//     core.Window set to the recorded marks, re-register the resident
//     pages, and run only to the window's end. The fork resumes with
//     cold host caches, which shifts its timing against the profiling
//     continuation deterministically; the warm-up in front of every
//     window absorbs that shift, and the residue is part of the error
//     budget TestIntervalPinnedErrorBound gates empirically (≤0.02
//     absolute miss-ratio error at scale 125).
//
// Full-run statistics are synthesized by weighted extrapolation: each
// representative's windowed counts scale by its cluster's
// user-instruction mass over the window's own mass (phase.Plan). The
// result is NOT byte-identical to the exhaustive run — interval mode is
// error-bound-gated, not byte-gated — but it is deterministic: the same
// options produce the same tables at any parallelism.
//
// Eligibility mirrors the gang path plus compiled replay (mid-run
// checkpoints need resumable cursors): gang-opted groups, no tracer, no
// telemetry, compiled workloads. Ineligible groups fall back to the
// exhaustive path, so tables stay byte-identical when -phase-intervals
// is off.

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"tapeworm/internal/core"
	"tapeworm/internal/kernel"
	"tapeworm/internal/mach"
	"tapeworm/internal/mem"
	"tapeworm/internal/monster"
	"tapeworm/internal/phase"
	"tapeworm/internal/resultcache"
	"tapeworm/internal/workload"
)

// errIntervalFallback marks a group that cannot take the interval path:
// its stream is beyond the compile budget, which workload decides from
// the spec without generating the stream, so falling back costs nothing
// before execGang runs the exhaustive gang.
var errIntervalFallback = errors.New("experiment: interval replay unavailable")

// execGang runs one gang-eligible group: through representative-interval
// replay when the options enable it and the group qualifies, otherwise
// exhaustively. Both runAll and the result cache's partial-group path
// funnel gang execution through here, so a cached sweep and a fresh one
// take the same engine.
func execGang(o Options, rcs []runConfig) ([]runResult, error) {
	rc0 := rcs[0]
	if o.PhaseIntervals > 0 && rc0.tel == nil && rc0.trace == nil && !rc0.reference {
		rs, err := runGangIntervals(o, rcs)
		if err == nil || !errors.Is(err, errIntervalFallback) {
			return rs, err
		}
	}
	return runGang(rcs)
}

// intervalMark is one representative's start: the checkpoint that
// froze the stream at its warm-up start, and the machine-instruction
// bounds of its measure window in the profiling timeline (which ForkRun
// restores, so the window reads the same clock).
type intervalMark struct {
	cp     *kernel.Checkpoint
	mStart uint64
	mEnd   uint64
}

// intervalProfile is everything one profiling pass learns: the phase
// plan, one mark per representative, and the exhaustive uninstrumented
// base result. The profile owns its representatives' checkpoints: they
// leave the profile cache with it, and a replay holding the profile keeps
// them alive.
type intervalProfile struct {
	plan  phase.Plan
	marks []intervalMark
	base  runResult
}

// profileKey identifies one profiling pass. Reference runs never profile
// (execGang replays them exhaustively), so the key needs no path bit. The
// warm-up is part of the key because it moves the capture points.
type profileKey struct {
	spec                 workload.Spec
	seed                 uint64
	pageSeed             uint64
	frames               int
	intervals, k, warmup int
}

// planKey identifies one phase analysis. The plan is a pure property of
// the compiled stream and the phase geometry — notably independent of
// pageSeed and warm-up — so one analysis serves every trial of a sweep.
type planKey struct {
	spec      workload.Spec
	seed      uint64
	intervals int
	k         int
}

// maxCachedCheckpoints bounds the profile cache by the checkpoints its
// profiles hold (one mid-run kernel image per representative); the
// newest profile stays even when it alone holds more.
const maxCachedCheckpoints = 16

var (
	// profileCache memoizes profiling passes and planCache phase analyses
	// (eight of them): the walk over the op stream costs about as much as
	// an uninstrumented replay, and a multi-trial sweep would otherwise
	// redo it once per pageSeed.
	profileCache = resultcache.NewCache[profileKey](maxCachedCheckpoints,
		func(p *intervalProfile) int64 { return int64(len(p.marks)) })
	planCache = resultcache.NewCache[planKey, phase.Plan](8, nil)

	profileRuns   atomic.Uint64 // profiling passes executed
	profileGroups atomic.Uint64 // gang groups replayed from a profile
	ckImages      atomic.Uint64 // checkpoints captured by profiling passes
	ckForks       atomic.Uint64 // representative replays forked from them
)

// IntervalStats reports interval-profiling activity since the last
// ResetIntervalProfiles: profiling passes executed and gang groups
// replayed from them. A group that fell back to exhaustive replay counts
// in neither, so a zero groups delta over a run means nothing in it was
// extrapolated.
func IntervalStats() (profiles, groups uint64) {
	return profileRuns.Load(), profileGroups.Load()
}

// CheckpointStats reports interval checkpoint activity since the last
// ResetIntervalProfiles: images is the number of mid-run checkpoints
// profiling passes captured, forks the number of representative replays
// forked from them, and evictions the number of profiles evicted from
// the profile cache, each taking its checkpoints with it.
func CheckpointStats() (images, forks, evictions uint64) {
	return ckImages.Load(), ckForks.Load(), profileCache.Stats().Evictions
}

// ResetIntervalProfiles drops the process-wide plan and profile caches,
// and with the profiles their checkpoints, and zeroes the counters of
// IntervalStats and CheckpointStats, so benchmarks can measure a cold
// start.
func ResetIntervalProfiles() {
	profileCache.Reset()
	planCache.Reset()
	profileRuns.Store(0)
	profileGroups.Store(0)
	ckImages.Store(0)
	ckForks.Store(0)
}

// cachedPlan returns the phase plan of rc's stream under o's geometry.
func cachedPlan(o Options, rc runConfig) (phase.Plan, error) {
	key := planKey{spec: rc.spec, seed: rc.seed, intervals: o.PhaseIntervals, k: o.PhaseK}
	return planCache.Get(key, func() (phase.Plan, error) {
		return phase.Analyze(rc.spec, rc.seed, phase.Config{
			Intervals: o.PhaseIntervals, K: o.PhaseK, Seed: rc.seed,
		})
	})
}

// cachedIntervalProfile returns the profile of rc's identity under o's
// geometry, counting the group as replayed when there is one.
func cachedIntervalProfile(o Options, rc runConfig, kcfg kernel.Config) (*intervalProfile, error) {
	key := profileKey{spec: rc.spec, seed: rc.seed, pageSeed: rc.pageSeed, frames: kcfg.Machine.Frames,
		intervals: o.PhaseIntervals, k: o.PhaseK, warmup: o.PhaseWarmup}
	p, err := profileCache.Get(key, func() (*intervalProfile, error) { return buildIntervalProfile(o, rc, kcfg) })
	if err == nil {
		profileGroups.Add(1)
	}
	return p, err
}

// buildIntervalProfile runs the profiling pass for rc's identity (see
// the package comment), capturing each representative's checkpoint.
func buildIntervalProfile(o Options, rc runConfig, kcfg kernel.Config) (*intervalProfile, error) {
	plan, err := cachedPlan(o, rc)
	if errors.Is(err, workload.ErrStreamTooLarge) {
		// No compiled stream means no resumable cursors: the group must
		// replay exhaustively (the same condition that runs the normal
		// path decode-ahead).
		return nil, fmt.Errorf("%w: %v", errIntervalFallback, err)
	}
	if err != nil {
		return nil, err
	}

	profileRuns.Add(1)

	// The profiling kernel boots exactly like a run's but carries no
	// telemetry and spawns the workload unsimulated: the pass must
	// observe the undilated machine timeline the ledgered gang shares.
	k, err := bootKernel(kcfg)
	if err != nil {
		return nil, err
	}

	prog, err := workload.NewPlanned(rc.spec, rc.seed)
	if err != nil {
		return nil, err
	}
	k.Spawn(rc.spec.Name, prog, false, false)

	marks := make([]intervalMark, len(plan.Reps))
	for ri, rep := range plan.Reps {
		capTarget := rep.Start
		if warm := uint64(o.PhaseWarmup); warm < capTarget {
			capTarget -= warm
		} else {
			capTarget = 0
		}
		// Representatives are replayed in stream order; when the previous
		// window ends inside this warm-up the capture point is simply the
		// current position (a shorter warm-up, not an error).
		if err := k.RunUntilUser(capTarget); err != nil {
			return nil, err
		}
		cp, err := kernel.CaptureAt(k, fmt.Sprintf("interval-%d", rep.Index))
		if err != nil {
			return nil, err
		}
		ckImages.Add(1)
		marks[ri].cp = cp
		if err := k.RunUntilUser(rep.Start); err != nil {
			return nil, err
		}
		marks[ri].mStart = k.Machine().Instructions()
		if err := k.RunUntilUser(rep.End); err != nil {
			return nil, err
		}
		marks[ri].mEnd = k.Machine().Instructions()
	}
	if err := k.Run(0); err != nil {
		return nil, err
	}

	m := k.Machine()
	var base runResult
	base.snap = monster.Snap(m)
	base.seconds = m.Seconds(m.Cycles())
	base.comp = k.ComponentInstructions()
	if t := k.Server(kernel.BSDServer); t != nil {
		base.bsdInstr = t.Instructions
	}
	if t := k.Server(kernel.XServer); t != nil {
		base.xInstr = t.Instructions
	}
	base.tasks = k.Stats().UserSpawned

	return &intervalProfile{plan: plan, marks: marks, base: base}, nil
}

// intervalTally accumulates one gang member's extrapolated statistics in
// float space; rounding happens once at synthesis.
type intervalTally struct {
	misses       float64
	byComp       [kernel.NumComponents]float64
	crossClears  float64
	lost         float64
	regs         float64
	removals     float64
	handler      float64
	setup        float64
	trueErrs     float64
	ledger       float64
	pagesTracked int    // gauge: last replay's value, not extrapolated
	mech         string // trap mechanism name, identical across replays
}

// runGangIntervals executes one gang group through representative-
// interval replay. Results are deterministic (the plan, marks and every
// replay are pure functions of the group identity) but extrapolated —
// see the package comment for the error contract. Riders (trailing
// configs without a simulator) take the profiling pass's exhaustive
// uninstrumented base, which is exact.
func runGangIntervals(o Options, rcs []runConfig) ([]runResult, error) {
	rc0 := rcs[0]
	members := rcs[:memberCount(rcs)]
	if rc0.frames <= 0 {
		rc0.frames = 8192
	}
	kcfg := kernel.DefaultConfig(mach.DECstation5000_200(rc0.frames), rc0.seed)
	kcfg.PageSeed = rc0.pageSeed

	profile, err := cachedIntervalProfile(o, rc0, kcfg)
	if err != nil {
		return nil, err
	}

	tallies := make([]intervalTally, len(members))
	for ri, rep := range profile.plan.Reps {
		ckForks.Add(1)
		if err := replayRep(members, rc0, kcfg, profile.marks[ri], rep, tallies); err != nil {
			return nil, err
		}
	}

	// Synthesize each member's full-run result: the exhaustive
	// uninstrumented base plus the extrapolated simulator statistics,
	// mirroring runGang's per-member ledger arithmetic.
	secondsPerCycle := 0.0
	if profile.base.snap.Cycles > 0 {
		secondsPerCycle = profile.base.seconds / float64(profile.base.snap.Cycles)
	}
	out := make([]runResult, len(rcs))
	for i := range out {
		out[i] = profile.base
	}
	for i, rc := range members {
		res := profile.base
		t := &tallies[i]
		res.twStats = core.Stats{
			Misses:          round64(t.misses),
			CrossKindClears: round64(t.crossClears),
			LostDisplaced:   round64(t.lost),
			Registrations:   round64(t.regs),
			Removals:        round64(t.removals),
			PagesTracked:    t.pagesTracked,
			HandlerCycles:   round64(t.handler),
			SetupCycles:     round64(t.setup),
			TrueErrors:      round64(t.trueErrs),
		}
		for c := range t.byComp {
			res.twStats.MissesByComp[c] = round64(t.byComp[c])
			res.twByComp[c] = res.twStats.MissesByComp[c]
		}
		// Like Tapeworm.EstimatedMisses, the estimate scales the reported
		// (rounded) count, so full sampling shows estimate == misses.
		res.twEst = float64(res.twStats.Misses) / rc.tw.Sampling.Fraction()
		res.mech = t.mech
		ledger := round64(t.ledger)
		res.snap.Cycles += ledger
		res.snap.OverheadCycles += ledger
		res.seconds = secondsPerCycle * float64(res.snap.Cycles)
		out[i] = res
	}
	return out, nil
}

// replayRep forks one representative's checkpoint, attaches the gang
// with its measure window, and folds the windowed statistics into the
// members' tallies at the representative's extrapolation weight.
func replayRep(rcs []runConfig, rc0 runConfig, kcfg kernel.Config,
	mark intervalMark, rep phase.Representative, tallies []intervalTally) error {
	resume := func(cur kernel.ProgramCursor) (kernel.Program, error) {
		return workload.NewPlannedAt(rc0.spec, rc0.seed, cur)
	}
	fk, err := kernel.ForkRun(mark.cp, kcfg, resume)
	if err != nil {
		return err
	}

	cfgs := make([]core.Config, len(rcs))
	for i, rc := range rcs {
		cfgs[i] = *rc.tw
		cfgs[i].Window = core.Window{
			WarmupInstr:  mark.mStart,
			MeasureInstr: mark.mEnd - mark.mStart,
		}
	}
	g, err := core.AttachGang(fk, cfgs)
	if err != nil {
		return err
	}

	// The profiling pass spawned the workload unsimulated; each member
	// flips the live user tasks to its own attributes before the resident
	// pages are swept (the sweep consults the union Task.Simulate, and the
	// gang hands each page only to the members simulating its task).
	for i, tw := range g.Members() {
		for _, t := range fk.Tasks() {
			if t.ID == mem.KernelTask || t.Server || t.State == kernel.Exited {
				continue
			}
			if err := tw.Attributes(t.ID, rcs[i].simUser, rcs[i].simUser); err != nil {
				return err
			}
		}
		if err := simulateSystem(fk, tw, rcs[i]); err != nil {
			return err
		}
	}
	fk.RegisterResidentPages()

	if err := fk.RunUntilInstr(mark.mEnd); err != nil {
		return err
	}

	// Scale the window's counts by the cluster's mass over the window's
	// own mass: a representative standing for W user instructions of an
	// L-instruction interval contributes its counts W/L times.
	scale := float64(rep.Mass) / float64(rep.Len())
	for i, tw := range g.Members() {
		st := tw.Stats()
		t := &tallies[i]
		t.misses += float64(st.Misses) * scale
		for c := range st.MissesByComp {
			t.byComp[c] += float64(st.MissesByComp[c]) * scale
		}
		t.crossClears += float64(st.CrossKindClears) * scale
		t.lost += float64(st.LostDisplaced) * scale
		t.regs += float64(st.Registrations) * scale
		t.removals += float64(st.Removals) * scale
		t.handler += float64(st.HandlerCycles) * scale
		t.setup += float64(st.SetupCycles) * scale
		t.trueErrs += float64(st.TrueErrors) * scale
		t.ledger += float64(tw.LedgerCycles()) * scale
		t.pagesTracked = st.PagesTracked
		t.mech = tw.MechanismName()
	}
	return nil
}

func round64(x float64) uint64 {
	if x <= 0 {
		return 0
	}
	return uint64(math.Round(x))
}
