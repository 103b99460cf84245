// Package kernel is a golden-test stand-in for the real
// tapeworm/internal/kernel: it redeclares the checkpoint fork API (Fork,
// ForkRun, ReleaseCheckpoint) under the same import path. A forked
// kernel's arrays are plain allocations the garbage collector reclaims,
// so a checkpoint fork is not a paired resource: the shapes below must
// pass the pairing analyzer silently, and a //twvet:transfer left on a
// fork wrapper suppresses nothing, so the stale-directive scan flags it.
package kernel

import "errors"

// Checkpoint mirrors the real frozen kernel image.
type Checkpoint struct{ midrun bool }

// Config mirrors the real kernel configuration.
type Config struct{}

// Kernel mirrors the real kernel handle.
type Kernel struct{}

// ProgramCursor mirrors the real resumable stream position.
type ProgramCursor struct{}

// Program mirrors the real task program.
type Program interface{}

// ProgramResume mirrors the real cursor-rebuild callback.
type ProgramResume func(ProgramCursor) (Program, error)

// Fork mirrors the real post-boot fork.
func Fork(cp *Checkpoint, cfg Config) (*Kernel, error) {
	if cp == nil {
		return nil, errors.New("nil checkpoint")
	}
	return &Kernel{}, nil
}

// ForkRun mirrors the real mid-run fork.
func ForkRun(cp *Checkpoint, cfg Config, resume ProgramResume) (*Kernel, error) {
	if !cp.midrun {
		return nil, errors.New("no run state")
	}
	return &Kernel{}, nil
}

// ReleaseCheckpoint mirrors the real no-op kept for the benchmark.
func (k *Kernel) ReleaseCheckpoint() {}

// Run mirrors the real run loop.
func (k *Kernel) Run(n int) {}

// forkRunDropped lets the forked kernel go on an early return and at the
// end alike: the garbage collector reclaims it.
func forkRunDropped(cp *Checkpoint, cfg Config, resume ProgramResume, bad bool) error {
	fk, err := ForkRun(cp, cfg, resume)
	if err != nil {
		return err
	}
	if bad {
		return errors.New("window diverged")
	}
	fk.Run(1000)
	return nil
}

// forkRunReleased still calls the no-op release: it balances nothing,
// so it must not read as a release without an acquire.
func forkRunReleased(cp *Checkpoint, cfg Config) error {
	fk, err := Fork(cp, cfg)
	if err != nil {
		return err
	}
	defer fk.ReleaseCheckpoint()
	fk.Run(1000)
	return nil
}

// forkPerWindow forks once per loop iteration without a release.
func forkPerWindow(cp *Checkpoint, cfg Config, resume ProgramResume, windows int) {
	for i := 0; i < windows; i++ {
		if fk, err := ForkRun(cp, cfg, resume); err == nil {
			fk.Run(1000)
		}
	}
}

// forkRunWrapped hands the forked kernel to its caller. Nothing is owed,
// so the annotation is dead.
//
//twvet:transfer fork // want `//twvet:transfer fork directive suppressed nothing this run: delete it`
func forkRunWrapped(cp *Checkpoint, cfg Config, resume ProgramResume) (*Kernel, error) {
	return ForkRun(cp, cfg, resume)
}

var _ = forkRunDropped
var _ = forkRunReleased
var _ = forkPerWindow
var _ = forkRunWrapped
