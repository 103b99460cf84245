package experiment

import (
	"testing"

	"tapeworm/internal/cache"
	"tapeworm/internal/core"
	"tapeworm/internal/kernel"
	"tapeworm/internal/mach"
)

// TestComponentSharingInterference checks the structural property behind
// Table 6: when all workload components share one cache, each component
// misses at least about as often as it does in a dedicated cache, and the
// total exceeds the sum of the dedicated runs (cache interference).
func TestComponentSharingInterference(t *testing.T) {
	o := QuickOptions()
	spec, err := mustSpec(o, "sdet")
	if err != nil {
		t.Fatal(err)
	}
	cfg := func() *core.Config {
		return dmICache(4<<10, cache.PhysIndexed, core.FullSampling())
	}
	exec := func(user, servers, kern bool) runResult {
		t.Helper()
		res, err := run(runConfig{
			spec: spec, seed: o.Seed, pageSeed: o.Seed, frames: o.Frames,
			tw:      cfg(),
			simUser: user, simServers: servers, simKernel: kern,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	user := exec(true, false, false)
	servers := exec(false, true, false)
	kern := exec(false, false, true)
	all := exec(true, true, true)

	sum := user.TwStats.Misses + servers.TwStats.Misses + kern.TwStats.Misses
	if all.TwStats.Misses <= sum {
		t.Errorf("no interference: all %d <= sum of dedicated %d", all.TwStats.Misses, sum)
	}
	// Each shared component should miss at least ~95% of its dedicated
	// count (streams interleave slightly differently across runs).
	for comp, dedicated := range map[kernel.Component]uint64{
		kernel.CompUser:   user.TwStats.Misses,
		kernel.CompServer: servers.TwStats.Misses,
		kernel.CompKernel: kern.TwStats.Misses,
	} {
		shared := all.TwByComp[comp]
		if float64(shared) < 0.95*float64(dedicated) {
			t.Errorf("%v: shared misses %d below dedicated %d", comp, shared, dedicated)
		}
	}
	// Dedicated runs see misses only from their own component.
	if user.TwByComp[kernel.CompKernel] != 0 || user.TwByComp[kernel.CompServer] != 0 {
		t.Errorf("user-dedicated run recorded foreign misses: %v", user.TwByComp)
	}
}

// TestMaskedTrapsRecovered verifies the mask latch: with the controller
// latch and Tapeworm's logging code, nearly all ECC events raised in
// interrupt-masked kernel regions are delivered late rather than lost.
func TestMaskedTrapsRecovered(t *testing.T) {
	o := QuickOptions()
	spec, err := mustSpec(o, "ousterhout")
	if err != nil {
		t.Fatal(err)
	}
	rc := runConfig{spec: spec, seed: o.Seed, simUser: true, simServers: true, simKernel: true}
	kcfg := kernel.DefaultConfig(mach.DECstation5000_200(o.Frames), o.Seed)
	kcfg.PageSeed = o.Seed
	k, err := kernel.Boot(kcfg)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := core.Attach(k, *dmICache(4<<10, cache.PhysIndexed, core.FullSampling()))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := newWorkloadProgram(rc)
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn(spec.Name, prog, true, true)
	if err := simulateSystem(k, tw, rc); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	c := k.Machine().Counters()
	if c.ECCLatched == 0 {
		t.Fatal("no ECC traps were latched during masked kernel sections")
	}
	if c.MaskedDrops > c.ECCLatched/10 {
		t.Errorf("too many masked drops (%d) relative to latched deliveries (%d)",
			c.MaskedDrops, c.ECCLatched)
	}
}
