package core

import (
	"testing"

	"tapeworm/internal/cache"
	"tapeworm/internal/kernel"
	"tapeworm/internal/mach"
	"tapeworm/internal/mem"
	"tapeworm/internal/rng"
)

// chaosProgram emits a random mixture of text fetches, data references,
// syscalls, forks and an eventual exit — an adversarial workload for the
// register/remove/trap lifecycle.
type chaosProgram struct {
	r      *rng.Source
	n      int
	forks  int
	spread uint32 // text footprint
}

func (p *chaosProgram) Next() kernel.Event {
	if p.n <= 0 {
		return kernel.Event{Kind: kernel.EvExit}
	}
	p.n--
	switch {
	case p.forks > 0 && p.r.Bool(0.002):
		p.forks--
		return kernel.Event{
			Kind: kernel.EvFork,
			Child: &chaosProgram{r: p.r.Split("child"), n: p.n / 2,
				spread: p.spread},
			ShareText: p.r.Bool(0.5),
		}
	case p.r.Bool(0.01):
		svc := kernel.Services()[p.r.Intn(len(kernel.Services()))]
		return kernel.Event{Kind: kernel.EvSyscall, Service: svc}
	case p.r.Bool(0.25):
		return kernel.Event{Kind: kernel.EvRef, Ref: mem.Ref{
			VA:   kernel.DataBase + mem.VAddr(uint32(p.r.Intn(int(p.spread)))&^3),
			Kind: mem.RefKind(1 + p.r.Intn(2)),
		}}
	default:
		return kernel.Event{Kind: kernel.EvRef, Ref: mem.Ref{
			VA:   kernel.TextBase + mem.VAddr(uint32(p.r.Intn(int(p.spread)))&^3),
			Kind: mem.IFetch,
		}}
	}
}

// FuzzChaosLifecycle drives randomized fork/exit/reference workloads
// through every simulation mode and checks the trap/cache invariant and
// bookkeeping at the end of each run. The seed corpus covers every mode ×
// indexing shape at two workload seeds.
func FuzzChaosLifecycle(f *testing.F) {
	for _, seed := range []uint64{1994, 0x9e3779b97f4a7c15} {
		for mode := uint8(0); mode < 3; mode++ {
			for idx := uint8(0); idx < 2; idx++ {
				f.Add(seed, mode, idx)
			}
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, modeRaw, idxRaw uint8) {
		mode := []Mode{ModeICache, ModeUnified, ModeTLB}[modeRaw%3]
		indexing := []cache.Indexing{cache.PhysIndexed, cache.VirtIndexed}[idxRaw%2]

		kcfg := kernel.DefaultConfig(machFor(mode), seed)
		k, err := kernel.Boot(kcfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Mode: mode, Sampling: FullSampling(), Seed: seed}
		switch mode {
		case ModeTLB:
			cfg.TLB = cache.TLBConfig{Entries: 8, PageSize: 4096, Replace: cache.LRU}
		default:
			cfg.Cache = cache.Config{Size: 2 << 10, LineSize: 16, Assoc: 2,
				Indexing: indexing}
		}
		tw, err := Attach(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		prog := &chaosProgram{r: rng.New(seed).Split("chaos"), n: 20000,
			forks: 3, spread: 48 << 10}
		k.Spawn("chaos", prog, true, true)
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		// Tolerate the documented leak channels only.
		c := k.Machine().Counters()
		tolerated := c.MaskedDrops + c.SilentClears + c.DMAClears + c.DMAFaults +
			tw.Stats().CrossKindClears
		if err := tw.CheckInvariant(tolerated); err != nil {
			t.Fatal(err)
		}
		if tw.Stats().PagesTracked != 0 {
			t.Fatalf("%d pages leaked", tw.Stats().PagesTracked)
		}
		if tw.Stats().Misses == 0 {
			t.Fatal("no misses at all")
		}
	})
}

// machFor picks an allocate-on-write host for unified mode (stores would
// otherwise silently clear traps) and the DECstation otherwise.
func machFor(mode Mode) mach.Config {
	if mode == ModeUnified {
		return mach.WWTNode(4096)
	}
	return mach.DECstation5000_200(4096)
}
