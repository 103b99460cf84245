// Fragmentation: the long-running-system effect of Section 4.2 — "we have
// observed gradual (but substantial) increases in TLB misses due to kernel
// and server memory fragmentation in a long-running system". The same
// workload is run repeatedly on one booted system whose servers fragment
// their heaps as they serve requests; because Tapeworm simulations are
// driven by the live system rather than a fixed trace, the simulated TLB
// miss rate creeps upward from iteration to iteration.
package main

import (
	"fmt"
	"log"

	"tapeworm/internal/cache"
	"tapeworm/internal/core"
	"tapeworm/internal/kernel"
	"tapeworm/internal/mach"
	"tapeworm/internal/workload"
)

func main() {
	const (
		scale      = 800
		seed       = 41
		iterations = 6
	)

	// Boot one long-running system with server heap fragmentation on.
	kcfg := kernel.DefaultConfig(mach.DECstation5000_200(8192), seed)
	kcfg.ServerFragBytesPerReq = 96
	k, err := kernel.Boot(kcfg)
	if err != nil {
		log.Fatal(err)
	}
	tw, err := core.Attach(k, core.Config{
		Mode:     core.ModeTLB,
		TLB:      cache.TLBConfig{Entries: 64, PageSize: 4096, Replace: cache.LRU},
		Sampling: core.FullSampling(),
	})
	if err != nil {
		log.Fatal(err)
	}
	// Simulate the servers (where fragmentation lives) and the workload.
	for _, kind := range []kernel.ServerKind{kernel.BSDServer, kernel.XServer} {
		if t := k.Server(kind); t != nil {
			if err := tw.Attributes(t.ID, true, false); err != nil {
				log.Fatal(err)
			}
		}
	}

	spec, err := workload.ByName("ousterhout", scale)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("ousterhout run repeatedly on one booted system, 64-entry simulated TLB:")
	fmt.Printf("%10s %12s %16s\n", "iteration", "TLB misses", "misses/1K instr")
	var prevMisses, prevInstr uint64
	for i := 1; i <= iterations; i++ {
		prog, err := workload.New(spec, seed+uint64(i))
		if err != nil {
			log.Fatal(err)
		}
		k.Spawn(spec.Name, prog, true, true)
		if err := k.Run(0); err != nil {
			log.Fatal(err)
		}
		misses := tw.Misses() - prevMisses
		instr := k.Machine().Instructions() - prevInstr
		prevMisses, prevInstr = tw.Misses(), k.Machine().Instructions()
		fmt.Printf("%10d %12d %16.3f\n", i, misses, 1000*float64(misses)/float64(instr))
	}
	fmt.Println("\nTrace-driven simulation replays a fixed trace and can never see this;")
	fmt.Println("a trap-driven simulator measures the system as it actually ages.")
}
