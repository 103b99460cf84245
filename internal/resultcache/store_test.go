package resultcache

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
)

// stringStore builds a store over string payloads.
func stringStore(max int) *Store {
	return New(max,
		func(v any) ([]byte, error) { return []byte(v.(string)), nil },
		func(b []byte) (any, error) { return string(b), nil })
}

func digestOf(parts ...string) Digest {
	h := NewHasher()
	for _, p := range parts {
		h.WriteString(p)
	}
	return h.Sum()
}

func TestHasherCanonical(t *testing.T) {
	// Distinct value sequences must never collide through encoding
	// ambiguity: "ab"+"c" vs "a"+"bc" and friends.
	if digestOf("ab", "c") == digestOf("a", "bc") {
		t.Fatal("length prefixing failed: shifted strings collide")
	}
	if digestOf("ab") == digestOf("ab", "") {
		t.Fatal("empty trailing string should change the digest")
	}
	h1 := NewHasher()
	h1.WriteUint64(1)
	h1.WriteBool(true)
	h2 := NewHasher()
	h2.WriteUint64(1)
	h2.WriteBool(true)
	if h1.Sum() != h2.Sum() {
		t.Fatal("identical writes produced different digests")
	}
	h3 := NewHasher()
	h3.WriteBool(true)
	h3.WriteUint64(1)
	if h1.Sum() == h3.Sum() {
		t.Fatal("write order should matter")
	}
}

func TestMissCompleteHit(t *testing.T) {
	s := stringStore(8)
	d := digestOf("a")

	claim, err := s.Acquire(d, "")
	if err != nil {
		t.Fatal(err)
	}
	defer claim.Release()
	if _, ok := claim.Cached(); ok {
		t.Fatal("empty store reported a hit")
	}
	if err := claim.Complete("value-a"); err != nil {
		t.Fatal(err)
	}

	claim2, err := s.Acquire(d, "")
	if err != nil {
		t.Fatal(err)
	}
	defer claim2.Release()
	v, ok := claim2.Cached()
	if !ok || v.(string) != "value-a" {
		t.Fatalf("second acquire = (%v, %v), want cached value-a", v, ok)
	}
	st := s.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 miss 1 hit", st)
	}
}

func TestReleaseWithoutCompleteAbandons(t *testing.T) {
	s := stringStore(8)
	d := digestOf("a")
	claim, err := s.Acquire(d, "")
	if err != nil {
		t.Fatal(err)
	}
	claim.Release()
	claim.Release() // idempotent

	// The digest must be claimable again (and still a miss).
	claim2, err := s.Acquire(d, "")
	if err != nil {
		t.Fatal(err)
	}
	defer claim2.Release()
	if _, ok := claim2.Cached(); ok {
		t.Fatal("abandoned claim left a value behind")
	}
}

// TestInFlightGauge: a leader claim counts in flight until it is
// completed or released, hit claims never count, and a Get counts while
// its build runs, whether the build succeeds or fails.
func TestInFlightGauge(t *testing.T) {
	s := stringStore(8)
	inFlight := func(want int, when string) {
		t.Helper()
		if got := s.Stats().InFlight; got != want {
			t.Fatalf("%s: InFlight = %d, want %d", when, got, want)
		}
	}
	leader, err := s.Acquire(digestOf("a"), "")
	if err != nil {
		t.Fatal(err)
	}
	inFlight(1, "leader claim held")
	if err := leader.Complete("value-a"); err != nil {
		t.Fatal(err)
	}
	inFlight(0, "after Complete")
	leader.Release()
	hit, err := s.Acquire(digestOf("a"), "")
	if err != nil {
		t.Fatal(err)
	}
	inFlight(0, "hit claim held")
	hit.Release()

	abandoned, err := s.Acquire(digestOf("b"), "")
	if err != nil {
		t.Fatal(err)
	}
	inFlight(1, "leader claim held")
	abandoned.Release()
	inFlight(0, "after Release without Complete")

	for _, fail := range []bool{false, true} {
		_, err := s.Get(digestOf("c"), "", func() (any, error) {
			inFlight(1, "inside Get's build")
			if fail {
				return nil, errors.New("boom")
			}
			return "value-c", nil
		})
		if (err != nil) != fail {
			t.Fatalf("Get (failing build %v): err = %v", fail, err)
		}
		inFlight(0, "after Get")
		s.Reset()
	}
}

func TestSingleFlightDedup(t *testing.T) {
	s := stringStore(8)
	d := digestOf("shared")
	const workers = 8
	var simulations atomic.Uint64
	var wg sync.WaitGroup
	errs := make([]error, workers)
	vals := make([]string, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			claim, err := s.Acquire(d, "")
			if err != nil {
				errs[i] = err
				return
			}
			defer claim.Release()
			if v, ok := claim.Cached(); ok {
				vals[i] = v.(string)
				return
			}
			simulations.Add(1)
			if err := claim.Complete("shared-value"); err != nil {
				errs[i] = err
				return
			}
			vals[i] = "shared-value"
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		if vals[i] != "shared-value" {
			t.Fatalf("worker %d read %q", i, vals[i])
		}
	}
	if n := simulations.Load(); n != 1 {
		t.Fatalf("%d workers simulated, want exactly 1", n)
	}
	st := s.Stats()
	if st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 miss", st)
	}
	// Every follower counts a hit; one that waited on the leader's
	// build counts a join as well.
	if st.Hits != workers-1 || st.Joins > workers-1 {
		t.Fatalf("stats = %+v: want a hit for each of the %d followers and at most that many joins", st, workers-1)
	}
}

func TestAbandonElectsNewLeader(t *testing.T) {
	s := stringStore(8)
	d := digestOf("flaky")
	claim, err := s.Acquire(d, "")
	if err != nil {
		t.Fatal(err)
	}

	got := make(chan string, 1)
	go func() {
		c2, err := s.Acquire(d, "")
		if err != nil {
			got <- "err: " + err.Error()
			return
		}
		defer c2.Release()
		if v, ok := c2.Cached(); ok {
			got <- "cached: " + v.(string)
			return
		}
		c2.Complete("second-try")
		got <- "led: second-try"
	}()

	claim.Release() // first leader fails; follower must take over
	if v := <-got; v != "led: second-try" {
		t.Fatalf("follower saw %q, want to lead after abandon", v)
	}
}

func TestLRUEviction(t *testing.T) {
	s := stringStore(2)
	for i := 0; i < 3; i++ {
		d := digestOf(fmt.Sprint("key", i))
		claim, err := s.Acquire(d, "")
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := claim.Cached(); !ok {
			claim.Complete(fmt.Sprint("val", i))
		}
		claim.Release()
	}
	// key0 is the LRU victim; key2 must still be present.
	c, err := s.Acquire(digestOf("key2"), "")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Cached(); !ok {
		t.Fatal("most recent entry evicted")
	}
	c.Release()
	c0, err := s.Acquire(digestOf("key0"), "")
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Release()
	if _, ok := c0.Cached(); ok {
		t.Fatal("LRU entry survived past the bound")
	}
}

func TestPersistReload(t *testing.T) {
	dir := t.TempDir()
	d := digestOf("persisted")

	s1 := stringStore(8)
	claim, err := s1.Acquire(d, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := claim.Complete("disk-value"); err != nil {
		t.Fatal(err)
	}
	claim.Release()
	if st := s1.Stats(); st.Saves != 1 {
		t.Fatalf("stats = %+v, want 1 save", st)
	}

	// A fresh store (a new process) loads it from disk.
	s2 := stringStore(8)
	claim2, err := s2.Acquire(d, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer claim2.Release()
	v, ok := claim2.Cached()
	if !ok || v.(string) != "disk-value" {
		t.Fatalf("reload = (%v, %v), want disk-value", v, ok)
	}
	if st := s2.Stats(); st.Loads != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 load 1 hit", st)
	}
}

// TestPersistCorruption: a truncated file, a garbage file, and a valid
// file renamed to the wrong identity must all surface typed errors, never
// a panic or a silent fallback.
func TestPersistCorruption(t *testing.T) {
	d := digestOf("target")
	other := digestOf("other")

	t.Run("truncated", func(t *testing.T) {
		dir := t.TempDir()
		writeValid(t, dir, d, "v")
		path := Path(dir, d)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		expectAcquireError(t, dir, d, ErrCorrupt)
	})

	t.Run("garbage", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(Path(dir, d), []byte("not a gob stream at all"), 0o644); err != nil {
			t.Fatal(err)
		}
		expectAcquireError(t, dir, d, ErrCorrupt)
	})

	t.Run("wrong-identity", func(t *testing.T) {
		dir := t.TempDir()
		writeValid(t, dir, other, "other-value")
		if err := os.Rename(Path(dir, other), Path(dir, d)); err != nil {
			t.Fatal(err)
		}
		expectAcquireError(t, dir, d, ErrMismatch)
	})

	t.Run("future-version", func(t *testing.T) {
		dir := t.TempDir()
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(fileWire{Version: wireVersion + 1, Digest: d[:], Payload: []byte("v")}); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(Path(dir, d), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		expectAcquireError(t, dir, d, ErrMismatch)
	})
}

func writeValid(t *testing.T, dir string, d Digest, val string) {
	t.Helper()
	s := stringStore(8)
	claim, err := s.Acquire(d, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := claim.Complete(val); err != nil {
		t.Fatal(err)
	}
	claim.Release()
}

func expectAcquireError(t *testing.T, dir string, d Digest, want error) {
	t.Helper()
	s := stringStore(8)
	claim, err := s.Acquire(d, dir)
	if err == nil {
		claim.Release()
		t.Fatalf("Acquire succeeded over a bad file, want %v", want)
	}
	if !errors.Is(err, want) {
		t.Fatalf("Acquire error = %v, want %v", err, want)
	}
	// The bad file must not poison the digest: removing it recovers.
	if err := os.Remove(Path(dir, d)); err != nil {
		t.Fatal(err)
	}
	claim, err = s.Acquire(d, dir)
	if err != nil {
		t.Fatalf("Acquire after removing the bad file: %v", err)
	}
	defer claim.Release()
	if _, ok := claim.Cached(); ok {
		t.Fatal("bad file left a cached value")
	}
}

func TestResetDropsSettled(t *testing.T) {
	s := stringStore(8)
	d := digestOf("a")
	c, err := s.Acquire(d, "")
	if err != nil {
		t.Fatal(err)
	}
	c.Complete("v")
	c.Release()
	s.Reset()
	c2, err := s.Acquire(d, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Release()
	if _, ok := c2.Cached(); ok {
		t.Fatal("Reset kept a settled entry")
	}
	if st := s.Stats(); st != (Stats{Misses: 1, InFlight: 1}) {
		t.Fatalf("stats after reset = %+v, want one miss and c2 in flight", st)
	}
}
