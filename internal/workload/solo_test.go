package workload

import (
	"testing"

	"tapeworm/internal/cache"
	"tapeworm/internal/core"
	"tapeworm/internal/kernel"
	"tapeworm/internal/mach"
)

// soloOutcome is everything a solo simulation determines that the
// program path must not change.
type soloOutcome struct {
	stats core.Stats
	instr uint64
	comp  [kernel.NumComponents]uint64
	k     kernel.Stats
}

// runSolo simulates prog alone in a 64 KB direct-mapped I-cache.
func runSolo(t *testing.T, spec Spec, prog kernel.Program) soloOutcome {
	t.Helper()
	k, err := kernel.Boot(kernel.DefaultConfig(mach.DECstation5000_200(4096), 1994))
	if err != nil {
		t.Fatal(err)
	}
	tw, err := core.Attach(k, core.Config{
		Mode:     core.ModeICache,
		Cache:    cache.Config{Size: 64 << 10, LineSize: 16, Assoc: 1, Indexing: cache.PhysIndexed},
		Sampling: core.FullSampling(),
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn(spec.Name, prog, true, true)
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	return soloOutcome{tw.Stats(), k.Machine().Instructions(), k.ComponentInstructions(), k.Stats()}
}

// TestSoloRunsMatchReference simulates every paper workload through the
// reference interpreter, a decode-ahead stream and a compiled image, and
// requires identical simulator, machine and kernel statistics.
func TestSoloRunsMatchReference(t *testing.T) {
	for _, name := range Names() {
		spec, err := ByName(name, 2000)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewReference(spec, 1994)
		if err != nil {
			t.Fatal(err)
		}
		want := runSolo(t, spec, ref)
		da, err := New(spec, 1994)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(spec, 1994)
		if err != nil {
			t.Fatal(err)
		}
		for path, prog := range map[string]kernel.Program{"decode-ahead": da, "compiled": c} {
			if got := runSolo(t, spec, prog); got != want {
				t.Errorf("%s %s: %+v\nreference: %+v", name, path, got, want)
			}
		}
	}
}
