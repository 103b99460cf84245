package experiment

import (
	"tapeworm/internal/core"
	"tapeworm/internal/kernel"
	"tapeworm/internal/monster"
)

// SingleResult is the readout of one run: the fields twsim reports,
// detached from the live system. RunSingle returns it, and twsim's result
// cache persists it as a gob payload, which matches fields by name.
type SingleResult struct {
	Snap    monster.Snapshot
	Seconds float64
	Mech    string
	Stats   core.Stats
	Comp    [kernel.NumComponents]uint64
	Est     float64
}

// RunSingle executes one instrumented run of the named workload through
// the experiment layer's ganged execution engine, which is where
// representative-interval replay lives: with o.PhaseIntervals > 0 the
// run is extrapolated from its phase representatives (error-bound-gated,
// not exact), and with phase sampling off the ganged path is
// byte-identical to a solo ledgered run. twsim uses it to honor the
// -phase-* flags without reimplementing the interval engine; the
// machine model is the experiment layer's DECstation.
func RunSingle(o Options, workloadName string, pageSeed uint64,
	cfg core.Config, simServers, simKernel bool) (SingleResult, error) {
	if err := o.Validate(); err != nil {
		return SingleResult{}, err
	}
	spec, err := mustSpec(o, workloadName)
	if err != nil {
		return SingleResult{}, err
	}
	jobs := []runJob{{cfg: runConfig{
		spec: spec, seed: o.Seed, pageSeed: pageSeed, frames: o.Frames,
		tw: &cfg, simUser: true, simServers: simServers, simKernel: simKernel,
		gang: true,
	}}}
	res, err := runAll(o, jobs)
	if err != nil {
		return SingleResult{}, err
	}
	r := res[0]
	return SingleResult{Snap: r.Snap, Seconds: r.Seconds, Mech: r.Mech,
		Stats: r.TwStats, Comp: r.TwByComp, Est: r.TwEst}, nil
}
