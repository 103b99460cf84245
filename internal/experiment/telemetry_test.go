package experiment

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"tapeworm/internal/telemetry"
)

// TestTelemetryDeterministicAcrossParallelism: a figure2 render with
// telemetry on records runs and trap events and writes a well-formed JSONL
// trace. Because runs are committed through the submission-order heap,
// per-run metrics (indexes, names, counters, events) and the trace must be
// identical at parallelism 1 and 8; only wall times may differ. That the
// tables stay byte-identical with telemetry on is TestDifferential's
// telemetry rows.
func TestTelemetryDeterministicAcrossParallelism(t *testing.T) {
	collect := func(parallelism int) (telemetry.Report, string) {
		var trace bytes.Buffer
		coll := telemetry.New(telemetry.Config{Trace: &trace})
		coll.SetScope("figure2")
		o := parallelOptions(parallelism)
		o.Telemetry = coll
		if _, err := Figure2(o); err != nil {
			t.Fatal(err)
		}
		rep := coll.Snapshot()
		if len(rep.Experiments) != 1 || rep.Experiments[0].Totals.Runs == 0 {
			t.Fatalf("parallelism %d: telemetry recorded no runs", parallelism)
		}
		if rep.Experiments[0].Totals.Events == 0 {
			t.Errorf("parallelism %d: telemetry recorded no trap events", parallelism)
		}
		return rep, trace.String()
	}
	rep1, trace1 := collect(1)
	rep8, trace8 := collect(8)
	if trace1 != trace8 {
		t.Error("JSONL trace streams differ between parallelism 1 and 8")
	}
	if trace1 == "" {
		t.Error("empty trace stream")
	}
	sc := bufio.NewScanner(strings.NewReader(trace1))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev telemetry.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		if ev.Kind == "" || !strings.HasPrefix(ev.Run, "figure2/run") {
			t.Fatalf("malformed event %+v", ev)
		}
	}
	runs1, runs8 := rep1.Experiments[0].Runs, rep8.Experiments[0].Runs
	if len(runs1) != len(runs8) {
		t.Fatalf("run counts differ: %d vs %d", len(runs1), len(runs8))
	}
	for i := range runs1 {
		a, b := runs1[i], runs8[i]
		if a.Name != b.Name || a.Index != b.Index {
			t.Errorf("run %d identity differs: %s/%d vs %s/%d", i, a.Name, a.Index, b.Name, b.Index)
		}
		if a.SimCycles != b.SimCycles || a.Instructions != b.Instructions || a.Events != b.Events {
			t.Errorf("run %d metrics differ: %+v vs %+v", i, a, b)
		}
		for k, v := range a.Counters {
			if b.Counters[k] != v {
				t.Errorf("run %d counter %s: %d vs %d", i, k, v, b.Counters[k])
			}
		}
	}
}

// TestOrderedProgressUnderParallelism is the satellite regression test:
// progress lines must arrive in submission order at any parallelism, so
// the parallel sequence equals the serial sequence exactly — not merely
// as a set.
func TestOrderedProgressUnderParallelism(t *testing.T) {
	collect := func(parallelism int) []string {
		o := parallelOptions(parallelism)
		var got []string
		o.Progress = func(line string) { got = append(got, line) }
		if _, err := Figure2(o); err != nil {
			t.Fatal(err)
		}
		return got
	}
	serial := collect(1)
	if len(serial) == 0 {
		t.Fatal("no progress lines emitted")
	}
	parallel := collect(8)
	if len(serial) != len(parallel) {
		t.Fatalf("progress line counts differ: %d serial, %d parallel", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("progress order diverges at line %d: serial %q, parallel %q\nserial: %v\nparallel: %v",
				i, serial[i], parallel[i], serial, parallel)
		}
	}
}

// TestOptionsValidate covers the error paths that used to reach panics
// (empty trial slices in stats.Summarize, bad frame counts in
// mem.NewPhys).
func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Errorf("DefaultOptions invalid: %v", err)
	}
	if err := QuickOptions().Validate(); err != nil {
		t.Errorf("QuickOptions invalid: %v", err)
	}
	base := QuickOptions()
	for _, tc := range []struct {
		name   string
		mutate func(*Options)
		want   string
	}{
		{"zero trials", func(o *Options) { o.Trials = 0 }, "Trials"},
		{"negative trials", func(o *Options) { o.Trials = -3 }, "Trials"},
		{"zero scale", func(o *Options) { o.Scale = 0 }, "Scale"},
		{"negative scale", func(o *Options) { o.Scale = -1 }, "Scale"},
		{"zero frames", func(o *Options) { o.Frames = 0 }, "Frames"},
		{"negative frames", func(o *Options) { o.Frames = -8 }, "Frames"},
		{"oversized frames", func(o *Options) { o.Frames = 1 << 22 }, "Frames"},
		{"negative parallelism", func(o *Options) { o.Parallelism = -2 }, "Parallelism"},
	} {
		o := base
		tc.mutate(&o)
		err := o.Validate()
		if err == nil {
			t.Errorf("%s: accepted, want error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestExperimentsRejectBadOptions: every registered experiment must
// return the validation error instead of scheduling runs (or panicking).
func TestExperimentsRejectBadOptions(t *testing.T) {
	bad := QuickOptions()
	bad.Trials = 0
	for _, id := range IDs() {
		fn, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fn(bad); err == nil {
			t.Errorf("%s: accepted Trials=0, want error", id)
		}
	}
	badFrames := QuickOptions()
	badFrames.Frames = -1
	if _, err := Table7(badFrames); err == nil {
		t.Error("table7 accepted Frames=-1, want error")
	}
}
