package experiment

// Checkpointed boots. Every run in a sweep boots the same kernel: the
// boot recipe is a pure function of (seed, pageSeed, frames), and the
// dominant cost — the Fisher-Yates shuffle of the frame free list plus
// construction of every kernel and server text walker — repeats
// identically per run. With Options.Checkpoint set, the first run of each
// identity boots a throwaway kernel, captures a kernel.Checkpoint, and
// every run (including that first one) forks from the cached checkpoint
// instead. Forks share the captured physical-memory image copy-on-write,
// so the per-run cost drops to table copies and walker state restores.
//
// The cache mirrors the compiled-workload image cache (workload/compile.go):
// process-wide, sync.Once per key so concurrent first requests capture
// once, LRU-bounded. Checkpoints are pure values (deep copies, never
// mutated by forks), so eviction and re-capture can never change results.

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"tapeworm/internal/kernel"
	"tapeworm/internal/resultcache"
	"tapeworm/internal/workload"
)

// maxCachedCheckpoints bounds the boot-checkpoint entries of the cache.
// Each entry holds one boot image (frames × trap tables, ~hundreds of KB
// at bench scales); sweeps revisit the same few (seed, pageSeed, frames)
// identities many times per trial.
const maxCachedCheckpoints = 4

// maxCachedIntervalCheckpoints bounds the per-interval entries
// (interval >= 0) separately from the boot entries: one interval-replay
// sweep parks one mid-run image per representative, and evicting boot
// entries to make room for them (or vice versa) would defeat both
// caches.
const maxCachedIntervalCheckpoints = 16

// ckKey identifies one cached checkpoint. Boot checkpoints use the zero
// spec and interval -1; mid-run interval checkpoints carry the workload
// identity and the interval index they freeze the stream at.
type ckKey struct {
	seed     uint64
	pageSeed uint64
	frames   int
	spec     workload.Spec
	interval int
}

func bootKey(kcfg kernel.Config) ckKey {
	return ckKey{seed: kcfg.Seed, pageSeed: kcfg.PageSeed,
		frames: kcfg.Machine.Frames, interval: -1}
}

// ckGeom is the phase geometry an interval checkpoint was captured
// under. It is deliberately NOT part of ckKey: a sweep that changes its
// phase parameters mid-process re-uses the same (identity, interval)
// keys, so entries captured under the old geometry are stale — they
// freeze the stream at different positions — and are evicted (counted by
// CheckpointStats) rather than silently replayed.
type ckGeom struct {
	intervals int
	k         int
	warmup    int
}

type ckEntry struct {
	once sync.Once
	cp   *kernel.Checkpoint
	err  error
	gen  uint64 // LRU clock, updated under ckMu
	geom ckGeom // interval entries only
}

var (
	ckMu    sync.Mutex
	ckCache = map[ckKey]*ckEntry{}
	ckGen   uint64

	ckImages    atomic.Uint64 // boot images captured (or loaded), incl. evicted
	ckForks     atomic.Uint64 // kernels forked from cached images
	ckEvictions atomic.Uint64 // interval entries evicted as geometry-stale
)

// CheckpointStats reports process-wide checkpoint cache activity: images
// is the number of checkpoints captured or loaded from disk, forks the
// number of kernels served from them, and evictions the number of
// interval entries dropped because the sweep's phase geometry changed
// mid-process. forks/images is the boot amortization factor (bench
// JSON's boot_amortization section).
func CheckpointStats() (images, forks, evictions uint64) {
	return ckImages.Load(), ckForks.Load(), ckEvictions.Load()
}

// countCheckpointClass tallies cache entries of one class under ckMu.
func countCheckpointClass(interval bool) int {
	n := 0
	//twvet:allow maporder — counting is order-insensitive
	for k := range ckCache {
		if (k.interval >= 0) == interval {
			n++
		}
	}
	return n
}

// evictCheckpointLRU drops the least-recently-used entry of keep's class
// (never keep itself) under ckMu. Generation numbers are unique, so the
// minimum is the same victim at any iteration order.
func evictCheckpointLRU(keep *ckEntry, interval bool) {
	var victimKey ckKey
	var victim *ckEntry
	//twvet:allow maporder — unique-minimum selection is order-insensitive
	for k, v := range ckCache {
		if (k.interval >= 0) != interval || v == keep {
			continue
		}
		if victim == nil || v.gen < victim.gen {
			victimKey, victim = k, v
		}
	}
	if victim != nil {
		delete(ckCache, victimKey)
	}
}

// lookupIntervalCheckpoint serves a mid-run checkpoint for (key, geom)
// from the process-wide cache. A cached entry whose geometry disagrees
// is stale (see ckGeom) and is evicted on sight.
func lookupIntervalCheckpoint(key ckKey, geom ckGeom) (*kernel.Checkpoint, bool) {
	ckMu.Lock()
	defer ckMu.Unlock()
	e := ckCache[key]
	if e == nil {
		return nil, false
	}
	if e.geom != geom {
		delete(ckCache, key)
		ckEvictions.Add(1)
		return nil, false
	}
	ckGen++
	e.gen = ckGen
	ckForks.Add(1)
	return e.cp, true
}

// storeIntervalCheckpoint publishes a freshly captured mid-run checkpoint
// and sweeps the interval class: entries under any other geometry are
// unreachable by this sweep's keys and are evicted now rather than aging
// out one lookup at a time.
func storeIntervalCheckpoint(key ckKey, geom ckGeom, cp *kernel.Checkpoint) {
	ckMu.Lock()
	defer ckMu.Unlock()
	//twvet:allow maporder — deleting every mismatch is order-insensitive
	for k, v := range ckCache {
		if k.interval >= 0 && v.geom != geom {
			delete(ckCache, k)
			ckEvictions.Add(1)
		}
	}
	e := &ckEntry{cp: cp, geom: geom}
	e.once.Do(func() {}) // entry is born complete
	ckCache[key] = e
	ckGen++
	e.gen = ckGen
	ckImages.Add(1)
	for countCheckpointClass(true) > maxCachedIntervalCheckpoints {
		evictCheckpointLRU(e, true)
	}
}

// CachedCheckpoint is the exported entry to the process-wide checkpoint
// cache, for callers outside the experiment harness (the root package's
// System fork path, twsim). Semantics are cachedCheckpoint's.
func CachedCheckpoint(kcfg kernel.Config, dir string) (*kernel.Checkpoint, error) {
	return cachedCheckpoint(kcfg, dir)
}

// cachedCheckpoint memoizes boot checkpoints by (seed, pageSeed, frames).
// Concurrent requests for the same identity capture once and share the
// immutable result; distinct identities capture in parallel. dir, when
// non-empty, is consulted before capturing and written after.
func cachedCheckpoint(kcfg kernel.Config, dir string) (*kernel.Checkpoint, error) {
	key := bootKey(kcfg)
	ckMu.Lock()
	e := ckCache[key]
	if e == nil {
		e = &ckEntry{}
		ckCache[key] = e
		// Eviction only costs a re-capture (checkpoints are pure values).
		for countCheckpointClass(false) > maxCachedCheckpoints {
			evictCheckpointLRU(e, false)
		}
	}
	ckGen++
	e.gen = ckGen
	ckMu.Unlock()

	e.once.Do(func() { e.cp, e.err = buildCheckpoint(kcfg, dir) })
	if e.err != nil {
		return nil, e.err
	}
	ckForks.Add(1)
	return e.cp, nil
}

// buildCheckpoint produces the boot checkpoint for kcfg's identity:
// loaded from dir when a matching file exists, otherwise captured from a
// throwaway boot (and saved to dir when set). Telemetry is stripped from
// the capture boot — the checkpoint records state, and the throwaway
// kernel's events belong to no run.
func buildCheckpoint(kcfg kernel.Config, dir string) (*kernel.Checkpoint, error) {
	bcfg := kcfg
	bcfg.Telemetry = nil
	path := ""
	if dir != "" {
		path = checkpointPath(dir, bcfg)
		cp, err := loadCheckpoint(path, bcfg)
		if err == nil {
			ckImages.Add(1)
			return cp, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
	}
	k, err := kernel.Boot(bcfg)
	if err != nil {
		return nil, fmt.Errorf("experiment: checkpoint capture boot: %w", err)
	}
	cp, err := kernel.Capture(k, "post-boot")
	if err != nil {
		return nil, fmt.Errorf("experiment: checkpoint capture: %w", err)
	}
	ckImages.Add(1)
	if path != "" {
		if err := saveCheckpoint(path, cp); err != nil {
			return nil, err
		}
	}
	return cp, nil
}

// intervalCheckpointPath names the persisted mid-run checkpoint of one
// representative interval. The workload identity rides in as a spec
// digest; the phase geometry is deliberately absent (mirroring ckGeom's
// absence from ckKey), so a checkpoint directory reused under different
// -phase-* settings surfaces files that freeze the stream at the wrong
// position — loadIntervalCheckpoint validates the position and rejects
// them as stale instead of trusting the name.
func intervalCheckpointPath(dir string, kcfg kernel.Config, spec workload.Spec, interval int) string {
	h := resultcache.NewHasher()
	spec.HashInto(h)
	d := h.Sum()
	return filepath.Join(dir, fmt.Sprintf("iv-s%x-p%x-f%d-w%x-i%d.ckpt",
		kcfg.Seed, kcfg.PageSeed, kcfg.Machine.Frames, d[:6], interval))
}

// loadIntervalCheckpoint reads a persisted mid-run checkpoint and
// validates it against the requesting identity AND the capture position
// the current phase plan expects. A file captured under a different
// phase geometry has the right boot identity but the wrong stream
// position; it is rejected with a wrapped kernel.ErrCheckpointMismatch
// rather than silently replayed.
func loadIntervalCheckpoint(path string, kcfg kernel.Config, wantUser uint64) (*kernel.Checkpoint, error) {
	cp, err := loadCheckpoint(path, kcfg)
	if err != nil {
		return nil, err
	}
	if !cp.HasRunState() {
		return nil, fmt.Errorf("experiment: checkpoint file %s: %w: no mid-run state",
			path, kernel.ErrCheckpointMismatch)
	}
	if got := cp.UserInstructions(); got != wantUser {
		return nil, fmt.Errorf("experiment: checkpoint file %s: %w: stale interval checkpoint (frozen at %d user instructions, plan expects %d; was the directory written under different -phase-* settings?)",
			path, kernel.ErrCheckpointMismatch, got, wantUser)
	}
	return cp, nil
}

// checkpointPath names the checkpoint file for kcfg's identity. Every
// identity field that shapes boot state is in the name, so files from
// different sweeps never collide.
func checkpointPath(dir string, kcfg kernel.Config) string {
	return filepath.Join(dir, fmt.Sprintf("boot-s%x-p%x-f%d.ckpt",
		kcfg.Seed, kcfg.PageSeed, kcfg.Machine.Frames))
}

// loadCheckpoint reads and validates a persisted checkpoint. A file whose
// recorded identity disagrees with kcfg (stale directory, foreign file
// renamed into place) is rejected with a wrapped
// kernel.ErrCheckpointMismatch rather than silently forked from.
func loadCheckpoint(path string, kcfg kernel.Config) (*kernel.Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cp, err := kernel.ReadCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("experiment: checkpoint file %s: %w", path, err)
	}
	if err := cp.ValidateConfig(kcfg); err != nil {
		return nil, fmt.Errorf("experiment: checkpoint file %s: %w", path, err)
	}
	return cp, nil
}

// saveCheckpoint writes cp atomically (temp file + rename), so concurrent
// processes sharing a checkpoint directory never observe a torn file.
func saveCheckpoint(path string, cp *kernel.Checkpoint) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiment: checkpoint dir: %w", err)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("experiment: checkpoint temp file: %w", err)
	}
	if err := cp.Encode(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("experiment: checkpoint encode: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("experiment: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("experiment: checkpoint rename: %w", err)
	}
	return nil
}
