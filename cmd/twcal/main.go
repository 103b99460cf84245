// Command twcal probes the calibration of the synthetic workloads against
// the paper's Table 4 (component instruction fractions) and Figure 2 /
// Table 6 (miss ratios), printing measured-versus-target values. It is a
// development diagnostic; the reproduction harness proper is cmd/twbench.
package main

import (
	"flag"
	"fmt"
	"os"

	"tapeworm/internal/cache"
	"tapeworm/internal/core"
	"tapeworm/internal/kernel"
	"tapeworm/internal/mach"
	"tapeworm/internal/workload"
)

func main() {
	scale := flag.Float64("scale", 1000, "workload scale divisor")
	wl := flag.String("workload", "", "probe a single workload's miss curve")
	flag.Parse()

	if *wl != "" {
		missCurve(*wl, *scale)
		return
	}
	fractions(*scale)
}

// boot boots the calibration machine with the given seed.
func boot(seed uint64) *kernel.Kernel {
	return kernel.MustBoot(kernel.DefaultConfig(mach.DECstation5000_200(8192), seed))
}

func fractions(scale float64) {
	fmt.Printf("%-11s %9s %9s | %6s %6s %6s %6s | %6s %6s %6s %6s | %5s\n",
		"workload", "instr", "secs", "kern", "bsd", "x", "user",
		"tKern", "tBSD", "tX", "tUser", "tasks")
	for _, spec := range workload.Specs(scale) {
		k := boot(1)
		prog := workload.MustNew(spec, 42)
		k.Spawn(spec.Name, prog, false, false)
		if err := k.Run(0); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		m := k.Machine()
		total := float64(m.Instructions())
		comp := k.ComponentInstructions()
		var bsd, x float64
		if t := k.Server(kernel.BSDServer); t != nil {
			bsd = float64(t.Instructions)
		}
		if t := k.Server(kernel.XServer); t != nil {
			x = float64(t.Instructions)
		}
		fmt.Printf("%-11s %9.0f %9.3f | %5.1f%% %5.1f%% %5.1f%% %5.1f%% | %5.1f%% %5.1f%% %5.1f%% %5.1f%% | %5d\n",
			spec.Name, total, m.Seconds(m.Cycles()),
			100*float64(comp[kernel.CompKernel])/total,
			100*bsd/total, 100*x/total,
			100*float64(comp[kernel.CompUser])/total,
			100*spec.FracKernel, 100*spec.FracBSD, 100*spec.FracX, 100*spec.FracUser,
			k.Stats().UserSpawned)
	}
}

func missCurve(name string, scale float64) {
	spec, err := workload.ByName(name, scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s: user-task I-cache miss ratios (per user instruction), DM 16B lines\n", name)
	for _, sizeKB := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		k := boot(1)
		tw := core.MustAttach(k, core.Config{
			Mode: core.ModeICache,
			Cache: cache.Config{Size: sizeKB << 10, LineSize: 16, Assoc: 1,
				Indexing: cache.VirtIndexed},
			Sampling: core.FullSampling(),
		})
		k.Spawn(spec.Name, workload.MustNew(spec, 42), true, true)
		if err := k.Run(0); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		comp := k.ComponentInstructions()
		user := float64(comp[kernel.CompUser])
		fmt.Printf("  %4dK: misses %8d  ratio %.4f\n",
			sizeKB, tw.Misses(), float64(tw.Misses())/user)
	}
}
