package experiment

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tapeworm/internal/kernel"
	"tapeworm/internal/mach"
)

// The checkpoint cache is process-wide and keyed by (seed, pageSeed,
// frames), so each test below runs at its own seed: tests then never
// share cache entries with each other (or with the parallel byte-identity
// matrix at the bottom of this file, which outlives its parent test).

func TestOptionsValidateCheckpoint(t *testing.T) {
	o := QuickOptions()
	o.CheckpointDir = "/tmp/somewhere"
	if err := o.Validate(); err == nil || !strings.Contains(err.Error(), "requires Checkpoint") {
		t.Fatalf("CheckpointDir without Checkpoint: err = %v", err)
	}
	o.Checkpoint = true
	if err := o.Validate(); err != nil {
		t.Fatalf("valid checkpoint options rejected: %v", err)
	}
	o.CheckpointDir = "   "
	if err := o.Validate(); err == nil {
		t.Fatal("blank CheckpointDir accepted")
	}
	file := filepath.Join(t.TempDir(), "plain-file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	o.CheckpointDir = file
	if err := o.Validate(); err == nil || !strings.Contains(err.Error(), "not a directory") {
		t.Fatalf("file as CheckpointDir: err = %v", err)
	}
}

// TestCheckpointDirPersistence proves the disk path: a second render
// pointed at the same directory loads the saved checkpoint instead of
// re-capturing, and still renders identically.
func TestCheckpointDirPersistence(t *testing.T) {
	dir := t.TempDir()
	o := parallelOptions(1)
	o.Seed = 2024
	o.Checkpoint = true
	o.CheckpointDir = dir

	tab1, err := Table6(o)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "boot-*.ckpt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no checkpoint files persisted (err %v)", err)
	}

	// Evict the in-memory cache so the second render must read the files.
	ckMu.Lock()
	ckCache = map[ckKey]*ckEntry{}
	ckMu.Unlock()

	tab2, err := Table6(o)
	if err != nil {
		t.Fatal(err)
	}
	if tab1.Render() != tab2.Render() {
		t.Fatal("render from persisted checkpoint differs from capture render")
	}
}

// TestCheckpointDirRejectsForeignFile: a persisted checkpoint whose
// identity does not match the requested configuration must be rejected
// with a wrapped kernel.ErrCheckpointMismatch, not silently forked from.
func TestCheckpointDirRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	o := parallelOptions(1)
	o.Seed = 2025
	o.Checkpoint = true
	o.CheckpointDir = dir
	if _, err := Table6(o); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "boot-*.ckpt"))
	if len(files) == 0 {
		t.Fatal("no checkpoint files persisted")
	}

	// Copy a real checkpoint over a different identity's slot and ask for
	// that identity: the load must detect the mismatch.
	kcfg := kernel.DefaultConfig(mach.DECstation5000_200(o.Frames), o.Seed+99)
	kcfg.PageSeed = 12345
	target := checkpointPath(dir, kcfg)
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(target, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadCheckpoint(target, kcfg); !errors.Is(err, kernel.ErrCheckpointMismatch) {
		t.Fatalf("foreign checkpoint load err = %v, want ErrCheckpointMismatch", err)
	}
}

// TestCheckpointStatsAmortization: many runs sharing one identity must be
// served by few images.
func TestCheckpointStatsAmortization(t *testing.T) {
	img0, fk0, _ := CheckpointStats()
	o := parallelOptions(1)
	o.Seed = 2026
	o.Checkpoint = true
	if _, err := Table6(o); err != nil { // table6 runs every workload at one (seed, pageSeed, frames)
		t.Fatal(err)
	}
	img1, fk1, _ := CheckpointStats()
	forks, images := fk1-fk0, img1-img0
	if forks == 0 || images == 0 {
		t.Fatalf("no cache traffic recorded: %d forks, %d images", forks, images)
	}
	if forks < 2*images {
		t.Errorf("amortization too low: %d forks over %d images", forks, images)
	}
}

// TestCheckpointByteIdentity is the in-process version of the
// `make verify-checkpoint` gate: experiments must render byte-identical
// tables whether every run boots fresh or forks from a cached boot
// checkpoint, across the fast path × gang × parallelism matrix. figure3
// exercises forks feeding ganged executions, table9 varies pageSeed per
// trial (one checkpoint identity per trial), table6 the gang-of-one path.
// Kept last in the file: its parallel subtests outlive the parent test
// and would otherwise overlap the cache-sensitive tests above.
func TestCheckpointByteIdentity(t *testing.T) {
	for _, id := range []string{"figure3", "table9", "table6"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			fn, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			render := func(checkpoint, noFastPath, noGang bool, parallelism int) string {
				o := parallelOptions(parallelism)
				o.Checkpoint = checkpoint
				o.NoFastPath = noFastPath
				o.NoGang = noGang
				tab, err := fn(o)
				if err != nil {
					t.Fatal(err)
				}
				return tab.Render()
			}
			want := render(false, false, false, 1)
			for _, c := range []struct {
				label              string
				noFastPath, noGang bool
				parallelism        int
			}{
				{"fork -parallel 1", false, false, 1},
				{"fork -parallel 8", false, false, 8},
				{"fork nofastpath", true, false, 1},
				{"fork nogang", false, true, 1},
				{"fork nofastpath nogang -parallel 8", true, true, 8},
			} {
				got := render(true, c.noFastPath, c.noGang, c.parallelism)
				if got != want {
					t.Errorf("%s: %s differs from fresh-boot render:\n--- boot ---\n%s\n--- %s ---\n%s",
						id, c.label, want, c.label, got)
				}
			}
		})
	}
}
