package experiment

import (
	"testing"

	"tapeworm/internal/cache"
	"tapeworm/internal/core"
	"tapeworm/internal/workload"
)

// Checks of properties the paper states or that hold by construction,
// read from run results rather than from agreement between execution
// paths.

// TestDirectMappedSetRefinement is the set-refinement inclusion oracle.
// The members of one gang share one reference stream and identical page
// events, and a direct-mapped cache with 2S sets holds a superset of the
// lines of one with S sets (same line size and indexing), so it can never
// miss more. That must hold for every workload, both indexings, user-only
// and all-components simulation, and under interval replay, whose windows
// start every member cold at the same fork and weight every member
// alike.
func TestDirectMappedSetRefinement(t *testing.T) {
	sizes := []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10}
	type block struct {
		indexing cache.Indexing
		all      bool // simulate servers and kernel as well as the user task
	}
	var blocks []block
	for _, indexing := range []cache.Indexing{cache.PhysIndexed, cache.VirtIndexed} {
		for _, all := range []bool{false, true} {
			blocks = append(blocks, block{indexing, all})
		}
	}
	exhaustive := Options{Scale: 2000, Seed: 1994, Trials: 1, Frames: 4096, Parallelism: 2}
	sampled := exhaustive
	sampled.PhaseIntervals, sampled.PhaseK, sampled.PhaseWarmup = 32, 3, 2000
	specs := workload.Specs(exhaustive.Scale)
	for _, mode := range []struct {
		name string
		o    Options
	}{{"exhaustive", exhaustive}, {"interval replay", sampled}} {
		// One gang per workload: every configuration below shares the
		// workload's gangKey.
		var jobs []runJob
		for _, spec := range specs {
			for _, b := range blocks {
				for _, size := range sizes {
					jobs = append(jobs, runJob{cfg: runConfig{
						spec: spec, seed: mode.o.Seed, pageSeed: mode.o.Seed, frames: mode.o.Frames,
						tw:      dmICache(size, b.indexing, core.FullSampling()),
						simUser: true, simServers: b.all, simKernel: b.all,
						gang: true,
					}})
				}
			}
		}
		_, groups0 := IntervalStats()
		rs, err := runAll(mode.o, jobs)
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		if _, groups1 := IntervalStats(); mode.o.PhaseIntervals > 0 && groups1-groups0 != uint64(len(specs)) {
			t.Fatalf("%s: %d of %d gangs replayed from intervals; the rest fell back",
				mode.name, groups1-groups0, len(specs))
		}
		pairs := 0
		for i := 1; i < len(rs); i++ {
			if i%len(sizes) == 0 {
				continue // first size of the next block
			}
			rc := jobs[i].cfg
			small, big := rs[i-1].TwStats.Misses, rs[i].TwStats.Misses
			if big > small {
				t.Errorf("%s: %s %s all=%v: %s misses %d > %s misses %d",
					mode.name, rc.spec.Name, rc.tw.Cache.Indexing, rc.simKernel,
					sizeKB(rc.tw.Cache.Size), big, sizeKB(jobs[i-1].cfg.tw.Cache.Size), small)
			}
			pairs++
			// Monotone but flat would also pass on a simulator that counts
			// nothing: each block's 64 KB cache must miss less than its 1 KB.
			if first := i + 1 - len(sizes); i%len(sizes) == len(sizes)-1 &&
				rs[i].TwStats.Misses >= rs[first].TwStats.Misses {
				t.Errorf("%s: %s %s all=%v: 64K misses %d not below 1K misses %d",
					mode.name, rc.spec.Name, rc.tw.Cache.Indexing, rc.simKernel,
					rs[i].TwStats.Misses, rs[first].TwStats.Misses)
			}
		}
		if want := len(specs) * len(blocks) * (len(sizes) - 1); pairs != want {
			t.Fatalf("%s: checked %d S→2S pairs, want %d", mode.name, pairs, want)
		}
	}
}

// TestTable9PageAllocationClaim checks Table 9's claim on the run results,
// not on the rounded "(0%)" text. With 4 KB pages every allocation maps a
// 4 KB physically-indexed cache identically, and virtual indexing never
// sees physical addresses, so the standard deviation of estimated misses
// across page allocations is exactly 0 there; some larger
// physically-indexed cache must vary.
func TestTable9PageAllocationClaim(t *testing.T) {
	for _, seed := range []uint64{1994, 7, 42} {
		o := QuickOptions()
		o.Seed = seed
		spec, err := mustSpec(o, "mpeg_play")
		if err != nil {
			t.Fatal(err)
		}
		rows, err := table9Rows(o, spec, o.Trials)
		if err != nil {
			t.Fatal(err)
		}
		varies := false
		for _, r := range rows {
			if r.indexing == cache.VirtIndexed || r.size == 4<<10 {
				if r.misses.Stddev != 0 {
					t.Errorf("seed %d: %s %s varies with page allocation: s = %g misses",
						seed, r.indexing, sizeKB(r.size), r.misses.Stddev)
				}
			} else if r.misses.Stddev > 0 {
				varies = true
			}
		}
		if !varies {
			t.Errorf("seed %d: no physically-indexed cache above 4K varies with page allocation", seed)
		}
	}
}
