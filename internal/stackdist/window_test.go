package stackdist

import (
	"testing"

	"tapeworm/internal/rng"
)

func TestWindowPartitionsTotals(t *testing.T) {
	// Window counters must partition the run totals exactly: summing the
	// per-window histograms/compulsory/deep over any window boundaries
	// reproduces the single-shot run.
	r := rng.New(7)
	s := MustNew(Config{LineSize: 16, NumSets: 4, MaxTrackedDepth: 32})
	whole := MustNew(Config{LineSize: 16, NumSets: 4, MaxTrackedDepth: 32})

	var refs uint64
	sum := WindowStats{}
	addHist := func(dst *[]uint64, h []uint64) {
		for len(*dst) < len(h) {
			*dst = append(*dst, 0)
		}
		for d, n := range h {
			(*dst)[d] += n
		}
	}
	for win := 0; win < 5; win++ {
		n := 500 + win*137 // uneven window lengths
		for i := 0; i < n; i++ {
			e := entry(uint32(r.Intn(1<<11)) &^ 15)
			s.Process(e)
			whole.Process(e)
			refs++
		}
		w := s.Window()
		if w.Refs != uint64(n) {
			t.Fatalf("window %d refs = %d, want %d", win, w.Refs, n)
		}
		sum.Refs += w.Refs
		sum.Compulsory += w.Compulsory
		sum.Deeper += w.Deeper
		addHist(&sum.Histogram, w.Histogram)
		s.ResetWindow()
	}

	if sum.Refs != whole.Refs() || sum.Compulsory != whole.Compulsory() || sum.Deeper != whole.Deeper() {
		t.Fatalf("window sums (refs %d, comp %d, deep %d) != whole-run (%d, %d, %d)",
			sum.Refs, sum.Compulsory, sum.Deeper, whole.Refs(), whole.Compulsory(), whole.Deeper())
	}
	wh := whole.Histogram()
	addHist(&sum.Histogram, nil) // no-op; keeps lengths comparable below
	if len(sum.Histogram) != len(wh) {
		t.Fatalf("summed histogram has %d bins, whole-run %d", len(sum.Histogram), len(wh))
	}
	for d := range wh {
		if sum.Histogram[d] != wh[d] {
			t.Fatalf("bin %d: windows sum to %d, whole-run %d", d, sum.Histogram[d], wh[d])
		}
	}
}

func TestWindowInheritsStackState(t *testing.T) {
	// A reuse whose previous touch happened before the window must hit at
	// its true depth, not count as a window-local first touch.
	s := MustNew(Config{LineSize: 16, NumSets: 1})
	s.Process(entry(0x00))
	s.Process(entry(0x10))
	s.ResetWindow()
	s.Process(entry(0x00)) // distance 1, across the boundary

	w := s.Window()
	if w.Refs != 1 || w.Compulsory != 0 {
		t.Fatalf("window = %+v; reuse across the boundary misclassified", w)
	}
	if len(w.Histogram) < 2 || w.Histogram[1] != 1 {
		t.Fatalf("histogram = %v, want the one reference at depth 1", w.Histogram)
	}
	if got := w.MissesAt(1); got != 1 {
		t.Fatalf("MissesAt(1) = %d, want 1 (depth 1 misses in a 1-way cache)", got)
	}
	if got := w.MissesAt(2); got != 0 {
		t.Fatalf("MissesAt(2) = %d, want 0", got)
	}
	if got := w.MissRatioAt(2); got != 0 {
		t.Fatalf("MissRatioAt(2) = %v", got)
	}
}

func TestWindowSnapshotIsolated(t *testing.T) {
	// Window() must return a copy: later Process calls and ResetWindow may
	// not mutate an already-taken snapshot.
	s := MustNew(Config{LineSize: 16, NumSets: 1})
	s.Process(entry(0x00))
	s.Process(entry(0x00))
	w := s.Window()
	s.Process(entry(0x00))
	s.ResetWindow()
	if w.Refs != 2 || len(w.Histogram) != 1 || w.Histogram[0] != 1 {
		t.Fatalf("snapshot mutated: %+v", w)
	}
}

func TestWindowDeepAndBounds(t *testing.T) {
	s := MustNew(Config{LineSize: 16, NumSets: 1, MaxTrackedDepth: 2})
	for i := 0; i < 4; i++ {
		s.Process(entry(uint32(i * 16)))
	}
	s.ResetWindow()
	s.Process(entry(0x00)) // dropped from the bounded stack: deep, not compulsory
	w := s.Window()
	if w.Deeper != 1 || w.Compulsory != 0 {
		t.Fatalf("window = %+v; want one deep reuse", w)
	}
	if got := w.MissesAt(2); got != 1 {
		t.Fatalf("MissesAt(2) = %d", got)
	}
	if got := w.MissesAt(0); got != w.Refs {
		t.Fatalf("MissesAt(0) = %d, want refs %d", got, w.Refs)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ways beyond the bound should panic for windows too")
		}
	}()
	w.MissesAt(3)
}

func TestWindowEmpty(t *testing.T) {
	s := MustNew(Config{LineSize: 16, NumSets: 1})
	w := s.Window()
	if w.Refs != 0 || w.MissesAt(4) != 0 || w.MissRatioAt(4) != 0 {
		t.Fatalf("empty window not zero: %+v", w)
	}
}
