package experiment

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tapeworm/internal/core"
	"tapeworm/internal/kernel"
	"tapeworm/internal/mach"
	"tapeworm/internal/monster"
	"tapeworm/internal/resultcache"
)

// The result store is process-wide, so every test below runs at its own
// seed (digest-distinct from every other test and from the parallel
// byte-identity matrices) and calls ResetResultCache before measuring
// cold behaviour.

func sweepGrid() SweepConfig {
	return SweepConfig{
		Workload: "espresso",
		Sizes:    []int{1 << 10, 4 << 10},
		Assocs:   []int{1, 2},
		Lines:    []int{16},
	}
}

// requireNoClaimsInFlight fails when the process-wide result store holds
// a claim that was never completed or released: it would wedge every later
// request for its digest.
func requireNoClaimsInFlight(t *testing.T) {
	t.Helper()
	if n := ResultCacheStats().InFlight; n != 0 {
		t.Errorf("%d result-cache claims left in flight", n)
	}
}

func TestOptionsValidateResultCache(t *testing.T) {
	o := QuickOptions()
	o.ResultCacheDir = "/tmp/somewhere"
	if err := o.Validate(); err == nil || !strings.Contains(err.Error(), "requires ResultCache") {
		t.Fatalf("ResultCacheDir without ResultCache: err = %v", err)
	}
	o.ResultCache = true
	if err := o.Validate(); err != nil {
		t.Fatalf("valid result-cache options rejected: %v", err)
	}
	o.ResultCacheDir = "   "
	if err := o.Validate(); err == nil {
		t.Fatal("blank ResultCacheDir accepted")
	}
	file := filepath.Join(t.TempDir(), "plain-file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	o.ResultCacheDir = file
	if err := o.Validate(); err == nil || !strings.Contains(err.Error(), "not a directory") {
		t.Fatalf("file as ResultCacheDir: err = %v", err)
	}
}

// TestSweepResultCacheByteIdentity counts what the result cache saves: a
// cold sweep boots one kernel (the gang, which the baseline rides), warm
// sweeps at any parallelism boot none, and the store traffic is exactly
// one miss then one hit per run (the grid points plus the uninstrumented
// normal run). The renders themselves are compared by TestDifferential's
// result-cache rows.
func TestSweepResultCacheByteIdentity(t *testing.T) {
	o := parallelOptions(1)
	o.Trials = 1
	o.Seed = 3001
	o.ResultCache = true
	sc := sweepGrid()
	o8 := o
	o8.Parallelism = 8

	ResetResultCache()
	for _, leg := range []struct {
		name  string
		o     Options
		boots uint64
	}{{"cold", o, 1}, {"warm", o, 0}, {"warm -parallel 8", o8, 0}} {
		before := executions.Load()
		if _, err := Sweep(leg.o, sc); err != nil {
			t.Fatal(err)
		}
		if got := executions.Load() - before; got != leg.boots {
			t.Errorf("%s sweep booted %d kernels, want %d", leg.name, got, leg.boots)
		}
	}

	st := ResultCacheStats()
	runs := uint64(sc.Points() + 1) // grid plus the normal run
	if st.Misses != runs {
		t.Errorf("cold misses = %d, want %d", st.Misses, runs)
	}
	if st.Hits != 2*runs {
		t.Errorf("warm hits = %d, want %d (two warm sweeps)", st.Hits, 2*runs)
	}
	requireNoClaimsInFlight(t)
}

// TestSweepResultCachePartialGang: extending a cached grid simulates only
// the new points — the shared points and the normal run are served from
// the store, and the partial gang's fresh results still match a cache-off
// render of the full grid (gang statistics are independent of gang
// composition).
func TestSweepResultCachePartialGang(t *testing.T) {
	o := parallelOptions(1)
	o.Trials = 1
	o.Seed = 3002

	small := SweepConfig{Workload: "espresso", Sizes: []int{1 << 10}, Assocs: []int{1}, Lines: []int{16}}
	full := SweepConfig{Workload: "espresso", Sizes: []int{1 << 10, 4 << 10}, Assocs: []int{1}, Lines: []int{16}}

	off, err := Sweep(o, full)
	if err != nil {
		t.Fatal(err)
	}

	o.ResultCache = true
	ResetResultCache()
	if _, err := Sweep(o, small); err != nil {
		t.Fatal(err)
	}
	s0 := ResultCacheStats()
	tab, err := Sweep(o, full)
	if err != nil {
		t.Fatal(err)
	}
	s1 := ResultCacheStats()

	if tab.Render() != off.Render() {
		t.Errorf("partial-gang render differs from cache-off render:\n--- off ---\n%s\n--- partial ---\n%s",
			off.Render(), tab.Render())
	}
	newPoints := uint64(full.Points() - small.Points())
	if got := s1.Misses - s0.Misses; got != newPoints {
		t.Errorf("full sweep after small sweep missed %d, want %d (only the new points)", got, newPoints)
	}
	if got := s1.Hits - s0.Hits; got != uint64(small.Points()+1) {
		t.Errorf("full sweep after small sweep hit %d, want %d (shared points + normal run)",
			got, small.Points()+1)
	}
	requireNoClaimsInFlight(t)
}

// TestSweepResultCacheDirPersistence proves the disk tier end to end: a
// fresh in-process cache pointed at a populated directory serves every
// run by load, rendering identically; and corrupted or foreign files
// surface the store's typed errors through the experiment Options path
// (the twbench/twsweep flag path) instead of silently feeding bad
// results into a table.
func TestSweepResultCacheDirPersistence(t *testing.T) {
	dir := t.TempDir()
	o := parallelOptions(1)
	o.Trials = 1
	o.Seed = 3003
	o.ResultCache = true
	o.ResultCacheDir = dir
	sc := sweepGrid()

	ResetResultCache()
	tab1, err := Sweep(o, sc)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "result-*.rc"))
	if err != nil || len(files) != sc.Points()+1 {
		t.Fatalf("persisted %d result files (err %v), want %d", len(files), err, sc.Points()+1)
	}

	ResetResultCache()
	tab2, err := Sweep(o, sc)
	if err != nil {
		t.Fatal(err)
	}
	if tab1.Render() != tab2.Render() {
		t.Fatal("render from persisted results differs from fresh render")
	}
	if st := ResultCacheStats(); st.Loads != uint64(sc.Points()+1) {
		t.Errorf("reload served %d loads, want %d", st.Loads, sc.Points()+1)
	}

	good, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(t *testing.T, data []byte, want error) {
		t.Helper()
		if err := os.WriteFile(files[0], data, 0o644); err != nil {
			t.Fatal(err)
		}
		ResetResultCache()
		if _, err := Sweep(o, sc); !errors.Is(err, want) {
			t.Fatalf("corrupted store: Sweep err = %v, want %v", err, want)
		}
	}
	t.Run("truncated", func(t *testing.T) {
		corrupt(t, good[:len(good)/2], resultcache.ErrCorrupt)
	})
	t.Run("garbage", func(t *testing.T) {
		corrupt(t, []byte("definitely not a gob stream"), resultcache.ErrCorrupt)
	})
	t.Run("wrong-identity", func(t *testing.T) {
		// A valid file renamed over another digest's slot decodes fine but
		// records the wrong digest: rejected as a mismatch, not corruption.
		other, err := os.ReadFile(files[1])
		if err != nil {
			t.Fatal(err)
		}
		corrupt(t, other, resultcache.ErrMismatch)
	})
	t.Run("recovery", func(t *testing.T) {
		// Removing the bad file leaves a plain miss: the run re-simulates,
		// re-persists, and the table matches the original.
		if err := os.Remove(files[0]); err != nil {
			t.Fatal(err)
		}
		ResetResultCache()
		tab3, err := Sweep(o, sc)
		if err != nil {
			t.Fatal(err)
		}
		if tab3.Render() != tab1.Render() {
			t.Fatal("render after recovery differs from original")
		}
	})
	requireNoClaimsInFlight(t)
}

// TestSweepResultCacheErrorReleasesClaims: a group whose claims fail part
// way releases the claims it already holds. The member with the lowest
// digest has no persisted file, so the group leads its claim; the next
// member's file is corrupt, so its Acquire fails. The typed error must
// come back with no claim left in flight.
func TestSweepResultCacheErrorReleasesClaims(t *testing.T) {
	dir := t.TempDir()
	o := parallelOptions(1)
	o.Trials = 1
	o.Seed = 3004
	o.ResultCache = true
	o.ResultCacheDir = dir
	sc := sweepGrid()

	ResetResultCache()
	if _, err := Sweep(o, sc); err != nil {
		t.Fatal(err)
	}
	// The sweep is one group, which acquires its claims in digest order;
	// a file is named by its digest in hex, and Glob sorts the names.
	files, err := filepath.Glob(filepath.Join(dir, "result-*.rc"))
	if err != nil || len(files) != sc.Points()+1 {
		t.Fatalf("persisted %d result files (err %v), want %d", len(files), err, sc.Points()+1)
	}
	if err := os.Remove(files[0]); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[1], []byte("definitely not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	ResetResultCache()
	if _, err := Sweep(o, sc); !errors.Is(err, resultcache.ErrCorrupt) {
		t.Fatalf("Sweep err = %v, want %v", err, resultcache.ErrCorrupt)
	}
	requireNoClaimsInFlight(t)
}

// legacyResultWire is resultWire as persisted before runResult dropped
// the machine's event counters: result files written then carry an extra
// Counters field, which decoding must skip.
type legacyResultWire struct {
	Snap     monster.Snapshot
	Seconds  float64
	Comp     [kernel.NumComponents]uint64
	BSDInstr uint64
	XInstr   uint64
	Tasks    int
	Counters mach.Counters

	TwStats  core.Stats
	TwByComp [kernel.NumComponents]uint64
	TwEst    float64
	Mech     string

	C2kHits, C2kMisses uint64
	PixieRefs          uint64
}

// resultEnvelope mirrors the store's on-disk envelope field for field, so
// tests can write files the store did not (another wire version).
type resultEnvelope struct {
	Version int
	Digest  []byte
	Payload []byte
}

func gobBytes(tb testing.TB, v any) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// loadResultFile writes data as digest d's persisted result in a fresh
// directory and resolves d through a fresh store, exactly as a
// -result-cache-dir lookup does.
func loadResultFile(tb testing.TB, d resultcache.Digest, data []byte) (runResult, error) {
	tb.Helper()
	dir := tb.TempDir()
	if err := os.WriteFile(resultcache.Path(dir, d), data, 0o644); err != nil {
		tb.Fatal(err)
	}
	claim, err := resultcache.New(1, encodeResult, decodeResult).Acquire(d, dir)
	if err != nil {
		return runResult{}, err
	}
	defer claim.Release()
	v, ok := claim.Cached()
	if !ok {
		tb.Fatal("a present result file was neither loaded nor rejected")
	}
	return v.(runResult), nil
}

// FuzzResultFile feeds arbitrary bytes to the persistent result tier as
// a result-<digest>.rc file. The store must reject the file with
// ErrCorrupt or ErrMismatch, or serve a value that encodes again; it must
// never panic. Seeds: a valid file, a truncated one, another digest's
// file, another wire version, and a file in the pre-counter-removal
// shape, which must still load.
func FuzzResultFile(f *testing.F) {
	o := QuickOptions()
	spec, err := mustSpec(o, "espresso")
	if err != nil {
		f.Fatal(err)
	}
	d := resultDigest(o, normalConfig(o, spec, 0))
	other := resultDigest(o, normalConfig(o, spec, 1))
	want := runResult{
		snap:    monster.Snapshot{Cycles: 9, OverheadCycles: 4, Instructions: 7, ClockTicks: 2},
		seconds: 1.5, comp: [kernel.NumComponents]uint64{5, 1, 1}, bsdInstr: 1, xInstr: 2, tasks: 3,
		twStats: core.Stats{Misses: 6}, twByComp: [kernel.NumComponents]uint64{6}, twEst: 6,
		mech: "ECC", c2kHits: 8, c2kMisses: 1, pixieRefs: 9,
	}
	file := func(version int, d resultcache.Digest, payload []byte) []byte {
		return gobBytes(f, resultEnvelope{Version: version, Digest: d[:], Payload: payload})
	}
	payload, err := encodeResult(want)
	if err != nil {
		f.Fatal(err)
	}
	legacy := file(1, d, gobBytes(f, legacyResultWire{
		Snap: want.snap, Seconds: want.seconds, Comp: want.comp,
		BSDInstr: want.bsdInstr, XInstr: want.xInstr, Tasks: want.tasks,
		Counters: mach.Counters{PageFaults: 12, ECCTraps: 6},
		TwStats:  want.twStats, TwByComp: want.twByComp, TwEst: want.twEst, Mech: want.mech,
		C2kHits: want.c2kHits, C2kMisses: want.c2kMisses, PixieRefs: want.pixieRefs,
	}))
	if got, err := loadResultFile(f, d, legacy); err != nil || !reflect.DeepEqual(got, want) {
		f.Fatalf("pre-change result file: got %+v, err %v; want %+v", got, err, want)
	}
	valid := file(1, d, payload)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(file(1, other, payload))
	f.Add(file(2, d, payload))
	f.Add(legacy)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := loadResultFile(t, d, data)
		if err != nil {
			if !errors.Is(err, resultcache.ErrCorrupt) && !errors.Is(err, resultcache.ErrMismatch) {
				t.Fatalf("untyped rejection: %v", err)
			}
			return
		}
		if _, err := encodeResult(r); err != nil {
			t.Fatalf("loaded result does not encode again: %v", err)
		}
	})
}
