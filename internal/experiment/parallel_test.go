package experiment

import (
	"strings"
	"sync"
	"testing"
)

// parallelOptions is deliberately coarse: the tests that use it check
// progress order, run names, counts and cache traffic, which do not depend
// on scale, so the cheapest runs suffice.
func parallelOptions(parallelism int) Options {
	return Options{Scale: 4000, Seed: 1994, Trials: 3, Frames: 4096,
		Parallelism: parallelism}
}

// TestParallelProgressComplete: the scheduler must deliver exactly the
// serial set of progress lines (order aside), already serialized — the
// callback mutates shared state without its own lock and must survive
// the race detector.
func TestParallelProgressComplete(t *testing.T) {
	collect := func(parallelism int) map[string]int {
		o := parallelOptions(parallelism)
		lines := make(map[string]int)
		var order []string
		o.Progress = func(line string) {
			lines[line]++ // unsynchronized map write: relies on scheduler serialization
			order = append(order, line)
		}
		if _, err := Figure2(o); err != nil {
			t.Fatal(err)
		}
		if len(order) == 0 {
			t.Fatal("no progress lines emitted")
		}
		return lines
	}
	serial, parallel := collect(1), collect(8)
	if len(serial) != len(parallel) {
		t.Fatalf("progress line sets differ: %d serial, %d parallel", len(serial), len(parallel))
	}
	for line, n := range serial {
		if parallel[line] != n {
			t.Errorf("line %q: %d serial occurrences, %d parallel", line, n, parallel[line])
		}
		if !strings.HasPrefix(line, "figure2:") {
			t.Errorf("unexpected progress line %q", line)
		}
	}
}

// TestParallelismOneMatchesLegacySerial pins the degenerate pool: with
// Parallelism 1 the scheduler must not spawn goroutines that interleave
// with the caller — progress callbacks arrive strictly in submission
// order, reproducing the seed repo's serial behaviour.
func TestParallelismOneMatchesLegacySerial(t *testing.T) {
	o := parallelOptions(1)
	var mu sync.Mutex
	var got []string
	o.Progress = func(line string) {
		mu.Lock()
		got = append(got, line)
		mu.Unlock()
	}
	if _, err := ExtAblation(o); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"ext-ablation: original-C done",
		"ext-ablation: optimized-assembly done",
		"ext-ablation: hardware-assist done",
	}
	if len(got) != len(want) {
		t.Fatalf("progress lines = %v, want %d lines", got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d = %q, want %q (serial submission order)", i, got[i], want[i])
		}
	}
}
