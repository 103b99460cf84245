package workload_test

// Mid-run checkpoint round trips, exercised from the workload side
// because resuming a fork needs NewPlannedAt (the kernel package cannot
// import workload). The invariants:
//
//   - ForkRun is deterministic: two forks of one checkpoint replay to
//     bit-identical final machines.
//   - The op stream is conserved: a fork runs exactly the instructions
//     the original had left, so stream-defined totals (user instructions,
//     per-task instruction counts, forks, exits) match the original run
//     to completion. Cycle counts are NOT compared — a fork starts with
//     cold host caches by design, which shifts timing deterministically.

import (
	"testing"

	"tapeworm/internal/kernel"
	"tapeworm/internal/mach"
	"tapeworm/internal/workload"
)

const (
	midrunFrames = 4096
	midrunSeed   = 1994
)

func midrunSpec(t *testing.T, name string, scale float64) workload.Spec {
	t.Helper()
	spec, err := workload.ByName(name, scale)
	if err != nil {
		t.Fatalf("ByName(%s): %v", name, err)
	}
	return spec
}

func midrunBoot(t *testing.T) *kernel.Kernel {
	t.Helper()
	kcfg := kernel.DefaultConfig(mach.DECstation5000_200(midrunFrames), midrunSeed)
	k, err := kernel.Boot(kcfg)
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	return k
}

// finalState summarizes everything a completed run determines.
type finalState struct {
	cycles, instret, userInstr uint64
	stats                      kernel.Stats
	taskInstr                  []uint64
}

func readFinal(k *kernel.Kernel) finalState {
	fs := finalState{
		cycles:    k.Machine().Cycles(),
		instret:   k.Machine().Instructions(),
		userInstr: k.UserInstructions(),
		stats:     k.Stats(),
	}
	for _, t := range k.Tasks() {
		fs.taskInstr = append(fs.taskInstr, t.Instructions)
	}
	return fs
}

func eqUint64s(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// captureMidway boots, spawns the compiled workload, runs to about half
// the stream and captures. The original kernel is then run to completion
// and its final state returned with the checkpoint.
func captureMidway(t *testing.T, spec workload.Spec, target uint64) (*kernel.Checkpoint, finalState) {
	t.Helper()
	k := midrunBoot(t)
	prog, err := workload.NewPlanned(spec, midrunSeed)
	if err != nil {
		t.Fatalf("NewPlanned: %v", err)
	}
	k.Spawn(spec.Name, prog, false, false)
	if err := k.RunUntilUser(target); err != nil {
		t.Fatalf("RunUntilUser: %v", err)
	}
	if got := k.UserInstructions(); got < target || got >= target+kernel.CompiledRunCap {
		t.Fatalf("RunUntilUser(%d) stopped at %d user instructions; want [%d, %d)",
			target, got, target, target+kernel.CompiledRunCap)
	}
	cp, err := kernel.CaptureAt(k, "test-midway")
	if err != nil {
		t.Fatalf("CaptureAt: %v", err)
	}
	if !cp.HasRunState() {
		t.Fatalf("CaptureAt checkpoint reports no run state")
	}
	if cp.UserInstructions() != k.UserInstructions() {
		t.Fatalf("checkpoint user instructions %d, kernel %d", cp.UserInstructions(), k.UserInstructions())
	}
	if err := k.Run(0); err != nil {
		t.Fatalf("Run to completion: %v", err)
	}
	return cp, readFinal(k)
}

func forkAndFinish(t *testing.T, cp *kernel.Checkpoint, spec workload.Spec) finalState {
	t.Helper()
	kcfg := kernel.DefaultConfig(mach.DECstation5000_200(midrunFrames), midrunSeed)
	resume := func(cur kernel.ProgramCursor) (kernel.Program, error) {
		return workload.NewPlannedAt(spec, midrunSeed, cur)
	}
	fk, err := kernel.ForkRun(cp, kcfg, resume)
	if err != nil {
		t.Fatalf("ForkRun: %v", err)
	}
	if got, want := fk.UserInstructions(), cp.UserInstructions(); got != want {
		t.Fatalf("forked kernel starts at %d user instructions, checkpoint captured %d", got, want)
	}
	if err := fk.Run(0); err != nil {
		t.Fatalf("forked Run: %v", err)
	}
	return readFinal(fk)
}

func TestForkRunDeterministicAndStreamConserving(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scale  float64
		target uint64
	}{
		{"espresso", 2000, 50_000},
		// sdet exercises the fork tree: cursors below the root image,
		// mid-run task spawn/exit state, shared text pages.
		{"sdet", 4000, 20_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := midrunSpec(t, tc.name, tc.scale)
			cp, orig := captureMidway(t, spec, tc.target)

			f1 := forkAndFinish(t, cp, spec)
			f2 := forkAndFinish(t, cp, spec)

			// Bit-identical across forks: same checkpoint, same stream,
			// same cold-start timing.
			if f1.cycles != f2.cycles || f1.instret != f2.instret ||
				f1.stats != f2.stats || !eqUint64s(f1.taskInstr, f2.taskInstr) {
				t.Fatalf("two forks diverge:\n  fork1 %+v\n  fork2 %+v", f1, f2)
			}

			// Stream conservation against the original run to completion.
			if f1.userInstr != orig.userInstr {
				t.Errorf("fork finished at %d user instructions, original %d", f1.userInstr, orig.userInstr)
			}
			if !eqUint64s(f1.taskInstr, orig.taskInstr) {
				t.Errorf("per-task instructions diverge:\n  fork %v\n  orig %v", f1.taskInstr, orig.taskInstr)
			}
			if f1.stats.UserSpawned != orig.stats.UserSpawned || f1.stats.UserExited != orig.stats.UserExited {
				t.Errorf("task tree diverges: fork %d/%d spawned/exited, orig %d/%d",
					f1.stats.UserSpawned, f1.stats.UserExited, orig.stats.UserSpawned, orig.stats.UserExited)
			}
		})
	}
}

func TestForkRunRejectsPostBootCheckpoint(t *testing.T) {
	k := midrunBoot(t)
	cp, err := kernel.Capture(k, "post-boot")
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	kcfg := kernel.DefaultConfig(mach.DECstation5000_200(midrunFrames), midrunSeed)
	if _, err := kernel.ForkRun(cp, kcfg, nil); err == nil {
		t.Fatalf("ForkRun accepted a post-boot checkpoint")
	}
}

func TestRunUntilInstr(t *testing.T) {
	spec := midrunSpec(t, "espresso", 2000)
	k := midrunBoot(t)
	prog, err := workload.NewPlanned(spec, midrunSeed)
	if err != nil {
		t.Fatalf("NewPlanned: %v", err)
	}
	k.Spawn(spec.Name, prog, false, false)
	const target = 120_000
	if err := k.RunUntilInstr(target); err != nil {
		t.Fatalf("RunUntilInstr: %v", err)
	}
	got := k.Machine().Instructions()
	if got < target {
		t.Fatalf("RunUntilInstr(%d) stopped early at %d", target, got)
	}
	// The stop lands on the next op/scheduling boundary; anything beyond
	// a couple hundred instructions would mean the stop checks are not
	// where they should be.
	if got > target+1024 {
		t.Fatalf("RunUntilInstr(%d) overshot to %d", target, got)
	}
}
