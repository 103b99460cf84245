package experiment

import (
	"errors"
	"reflect"
	"testing"

	"tapeworm/internal/cache"
	"tapeworm/internal/core"
	"tapeworm/internal/telemetry"
	"tapeworm/internal/workload"
)

// TestBaselineRidesGang: an uninstrumented baseline served by the gang
// that executes its stream must equal the baseline's own solo run, field
// for field, on every paper workload — whether the gang is an exhaustive
// cache sweep, a mix of TLB members and an all-activity cache member, or
// representative-interval replay (whose profiling pass is exhaustive and
// uninstrumented). Every gang has members with nonzero ledgers, so a
// rider that read the ledger-inclusive clock would differ.
func TestBaselineRidesGang(t *testing.T) {
	o := QuickOptions()
	o.Seed = 4141 // own seed: the interval caches are process-wide
	iv := o
	iv.PhaseIntervals, iv.PhaseK, iv.PhaseWarmup = 16, 2, 2000

	member := func(spec workload.Spec, cfg core.Config, all bool) runConfig {
		return runConfig{spec: spec, seed: o.Seed, pageSeed: o.Seed, frames: o.Frames,
			tw: &cfg, simUser: true, simServers: all, simKernel: all, gang: true}
	}
	icache := func(size, assoc, line int) core.Config {
		cfg := dmICache(size, cache.PhysIndexed, core.FullSampling())
		cfg.Cache.Assoc, cfg.Cache.LineSize = assoc, line
		return *cfg
	}
	tlb := func(entries int) core.Config {
		return core.Config{Mode: core.ModeTLB, Sampling: core.FullSampling(),
			TLB: cache.TLBConfig{Entries: entries, PageSize: 4096, Replace: cache.LRU}}
	}

	for _, spec := range workload.Specs(o.Scale) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			normal := normalConfig(o, spec, 0)
			want, err := run(normal)
			if err != nil {
				t.Fatal(err)
			}
			sweep := []runConfig{
				member(spec, icache(1<<10, 1, 16), false),
				member(spec, icache(4<<10, 2, 32), false),
				member(spec, icache(16<<10, 4, 16), false),
				normal,
			}
			mixed := []runConfig{
				member(spec, tlb(16), false),
				member(spec, tlb(64), false),
				member(spec, icache(4<<10, 1, 16), true),
				normal,
			}
			check := func(label string, rs []runResult) {
				t.Helper()
				for i, r := range rs[:len(rs)-1] {
					if r.Snap.OverheadCycles == 0 {
						t.Fatalf("%s: member %d has no ledger; the check would be vacuous", label, i)
					}
				}
				if got := rs[len(rs)-1]; !reflect.DeepEqual(got, want) {
					t.Errorf("%s: rider differs from the solo baseline:\nrider: %+v\nsolo:  %+v", label, got, want)
				}
			}
			for _, g := range []struct {
				label string
				rcs   []runConfig
			}{{"cache gang", sweep}, {"TLB+all-activity gang", mixed}} {
				rs, err := runGang(g.rcs)
				if err != nil {
					t.Fatal(err)
				}
				check(g.label, rs)
			}
			rs, err := runGangIntervals(iv, sweep)
			if errors.Is(err, errIntervalFallback) {
				return // stream beyond the compile budget: no profiling pass
			}
			if err != nil {
				t.Fatal(err)
			}
			check("interval replay", rs)
		})
	}
}

// TestBaselineSharesExecution: a cold Sweep and a cold Figure3 boot one
// kernel — the gang's, which the baseline rides — instead of one for the
// gang and one for the baseline. On the reference executor and under
// telemetry the baseline keeps its own execution.
func TestBaselineSharesExecution(t *testing.T) {
	boots := func(o Options, fn func(Options) (*Table, error)) uint64 {
		t.Helper()
		before := executions.Load()
		if _, err := fn(o); err != nil {
			t.Fatal(err)
		}
		return executions.Load() - before
	}
	sweep := func(o Options) (*Table, error) {
		return Sweep(o, SweepConfig{Workload: "mpeg_play",
			Sizes: []int{1 << 10, 4 << 10}, Assocs: []int{1, 2}, Lines: []int{16}})
	}
	o := parallelOptions(1)
	for _, c := range []struct {
		name string
		fn   func(Options) (*Table, error)
	}{{"sweep", sweep}, {"figure3", Figure3}} {
		if got := boots(o, c.fn); got != 1 {
			t.Errorf("%s booted %d kernels, want 1 (the baseline rides the gang)", c.name, got)
		}
		tel := o
		tel.Telemetry = telemetry.New(telemetry.Config{})
		if got := boots(tel, c.fn); got != 2 {
			t.Errorf("%s with telemetry booted %d kernels, want 2 (gang + solo baseline)", c.name, got)
		}
	}
	// The reference executor runs every member solo too: one boot per
	// configuration plus the baseline's.
	ref := o
	ref.reference = true
	if got := boots(ref, sweep); got != 5 {
		t.Errorf("reference sweep booted %d kernels, want 5 (4 solo members + baseline)", got)
	}
}
