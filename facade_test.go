package tapeworm_test

import (
	"math"
	"testing"

	"tapeworm"
	"tapeworm/internal/mem"
)

func TestQuickstartFlow(t *testing.T) {
	sys, err := tapeworm.NewSystem(tapeworm.SystemConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tw, err := sys.AttachTapeworm(tapeworm.SimConfig{
		Mode: tapeworm.ModeICache,
		Cache: tapeworm.CacheConfig{Size: 8 << 10, LineSize: 16, Assoc: 1,
			Indexing: tapeworm.PhysIndexed},
		Sampling: tapeworm.FullSampling(),
	})
	if err != nil {
		t.Fatal(err)
	}
	task, err := sys.LoadWorkload("espresso", 2000, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if task == nil || !task.Simulate {
		t.Fatal("workload task not spawned with simulate attribute")
	}
	if err := sys.Run(0); err != nil {
		t.Fatal(err)
	}
	if tw.Misses() == 0 {
		t.Fatal("no misses recorded")
	}
	snap := sys.Monitor()
	if snap.Instructions == 0 || snap.Cycles == 0 {
		t.Fatal("monitor returned empty snapshot")
	}
	if sys.Seconds() <= 0 {
		t.Fatal("no simulated time elapsed")
	}
}

func TestFacadeMachinePresets(t *testing.T) {
	if tapeworm.DECstation(1024).Name == "" ||
		tapeworm.Gateway486(1024).Name == "" ||
		tapeworm.WWTNode(1024).Name == "" {
		t.Fatal("machine presets unnamed")
	}
	if len(tapeworm.Workloads(100)) != 8 {
		t.Fatal("workload catalogue incomplete")
	}
	if _, err := tapeworm.WorkloadByName("kenbus", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := tapeworm.WorkloadByName("nope", 100); err == nil {
		t.Fatal("unknown workload accepted")
	}
	for _, scale := range []float64{0, -1, math.NaN(), math.Inf(1), 1e12, 1e-300} {
		if _, err := tapeworm.WorkloadByName("kenbus", scale); err == nil {
			t.Errorf("scale %v accepted", scale)
		}
	}
}

func TestFacadeUnknownWorkload(t *testing.T) {
	sys, err := tapeworm.NewSystem(tapeworm.SystemConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.LoadWorkload("nope", 100, 1, false); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestFacadePixiePath(t *testing.T) {
	sys, err := tapeworm.NewSystem(tapeworm.SystemConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	task, err := sys.LoadWorkload("eqntott", 4000, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := sys.AnnotatePixie(task, tapeworm.TraceSimConfig{
		Cache: tapeworm.CacheConfig{Size: 4 << 10, LineSize: 16, Assoc: 1},
		Kinds: []mem.RefKind{mem.IFetch},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(0); err != nil {
		t.Fatal(err)
	}
	if sim.Processed() == 0 {
		t.Fatal("trace-driven simulator processed nothing")
	}
	if _, err := sys.AnnotatePixie(nil, tapeworm.TraceSimConfig{}); err == nil {
		t.Fatal("nil task accepted")
	}
}

func TestFacadeCaptureTrace(t *testing.T) {
	sys, err := tapeworm.NewSystem(tapeworm.SystemConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	task, err := sys.LoadWorkload("eqntott", 4000, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := sys.CaptureTrace(task, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(0); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty trace")
	}
	if _, err := sys.CaptureTrace(nil, true); err == nil {
		t.Fatal("nil task accepted")
	}
}

func TestFacadeCustomProgram(t *testing.T) {
	sys, err := tapeworm.NewSystem(tapeworm.SystemConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	tw, err := sys.AttachTapeworm(tapeworm.SimConfig{
		Mode: tapeworm.ModeICache,
		Cache: tapeworm.CacheConfig{Size: 1 << 10, LineSize: 16, Assoc: 1,
			Indexing: tapeworm.VirtIndexed},
		Sampling: tapeworm.FullSampling(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.SpawnProgram("mine", &countdownProgram{n: 5000}, true, false)
	if err := sys.Run(0); err != nil {
		t.Fatal(err)
	}
	if tw.Misses() == 0 {
		t.Fatal("custom program produced no misses")
	}
}

// countdownProgram is a trivial user Program: n sequential fetches over 8 KB.
type countdownProgram struct{ n int }

func (p *countdownProgram) Next() tapeworm.Event {
	if p.n == 0 {
		return tapeworm.Event{Kind: tapeworm.EvExit}
	}
	p.n--
	va := 0x0040_0000 + uint32(p.n%2048)*4
	return tapeworm.Event{
		Kind: tapeworm.EvRef,
		Ref:  tapeworm.Ref{VA: tapeworm.VAddr(va), Kind: tapeworm.IFetch},
	}
}

func TestSlowdownHelper(t *testing.T) {
	normal := tapeworm.Snapshot{Cycles: 100}
	inst := tapeworm.Snapshot{Cycles: 250}
	if got := tapeworm.Slowdown(inst, normal); got != 1.5 {
		t.Fatalf("Slowdown = %v", got)
	}
}
