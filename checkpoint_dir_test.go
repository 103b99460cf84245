package tapeworm_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tapeworm"
	"tapeworm/internal/kernel"
)

// Persisted-checkpoint corruption through SystemConfig (the twsim flag
// path): a damaged or foreign .ckpt file must surface the kernel's typed
// errors from NewSystem, never silently boot fresh or fork from the
// wrong image. The process-wide checkpoint cache only reads a file on an
// identity's first use, so each subtest plants its file under an
// identity that has never booted in this process.

const ckptFrames = 4096

// ckptName mirrors the harness's persisted-checkpoint naming
// (boot-s<seed>-p<pageseed>-f<frames>.ckpt), letting the tests address a
// file for an identity before it ever boots.
func ckptName(dir string, seed, pageSeed uint64) string {
	return filepath.Join(dir, fmt.Sprintf("boot-s%x-p%x-f%d.ckpt", seed, pageSeed, ckptFrames))
}

func bootCheckpointed(dir string, seed, pageSeed uint64) (*tapeworm.System, error) {
	return tapeworm.NewSystem(tapeworm.SystemConfig{
		Machine: tapeworm.DECstation(ckptFrames), Seed: seed, PageSeed: pageSeed,
		Checkpoint: true, CheckpointDir: dir,
	})
}

func TestNewSystemCheckpointDirCorruption(t *testing.T) {
	dir := t.TempDir()

	// Boot one real identity so a genuine checkpoint file exists to
	// truncate and to rename over other identities' slots.
	if _, err := bootCheckpointed(dir, 7301, 7401); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(ckptName(dir, 7301, 7401))
	if err != nil {
		t.Fatalf("checkpoint file not persisted where expected: %v", err)
	}

	t.Run("truncated", func(t *testing.T) {
		if err := os.WriteFile(ckptName(dir, 7302, 7402), good[:len(good)/3], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := bootCheckpointed(dir, 7302, 7402); !errors.Is(err, kernel.ErrCheckpointCorrupt) {
			t.Fatalf("truncated checkpoint: NewSystem err = %v, want ErrCheckpointCorrupt", err)
		}
	})

	t.Run("garbage", func(t *testing.T) {
		path := ckptName(dir, 7303, 7403)
		if err := os.WriteFile(path, []byte("definitely not a checkpoint"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := bootCheckpointed(dir, 7303, 7403); !errors.Is(err, kernel.ErrCheckpointCorrupt) {
			t.Fatalf("garbage checkpoint: NewSystem err = %v, want ErrCheckpointCorrupt", err)
		}
	})

	t.Run("wrong-identity", func(t *testing.T) {
		// The real 7301 checkpoint renamed over another identity's slot
		// decodes fine but describes a different boot.
		if err := os.WriteFile(ckptName(dir, 7304, 7404), good, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := bootCheckpointed(dir, 7304, 7404); !errors.Is(err, kernel.ErrCheckpointMismatch) {
			t.Fatalf("foreign checkpoint: NewSystem err = %v, want ErrCheckpointMismatch", err)
		}
	})

	t.Run("recovery", func(t *testing.T) {
		// Failures are confined to the identity with the bad file: a
		// fresh identity pointed at the same directory still captures,
		// persists and forks normally.
		if _, err := bootCheckpointed(dir, 7305, 7405); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(ckptName(dir, 7305, 7405)); err != nil {
			t.Fatalf("fresh identity did not persist its checkpoint: %v", err)
		}
	})
}
