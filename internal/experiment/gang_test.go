package experiment

import (
	"fmt"
	"strings"
	"testing"

	"tapeworm/internal/telemetry"
	"tapeworm/internal/workload"
)

// TestGangProgressOrder: a gang completes many configurations at once, but
// progress lines must still arrive one per configuration in submission
// order — identical to the reference executor's solo-run sequence.
func TestGangProgressOrder(t *testing.T) {
	collect := func(reference bool, parallelism int) []string {
		o := parallelOptions(parallelism)
		o.reference = reference
		var got []string
		o.Progress = func(line string) { got = append(got, line) } // relies on scheduler serialization
		if _, err := Table8(o); err != nil {
			t.Fatal(err)
		}
		return got
	}
	solo := collect(true, 1)
	if len(solo) == 0 {
		t.Fatal("no progress lines emitted")
	}
	for _, line := range solo {
		if !strings.HasPrefix(line, "table8:") {
			t.Fatalf("unexpected progress line %q", line)
		}
	}
	for _, c := range []struct {
		label     string
		reference bool
		par       int
	}{
		{"ganged serial", false, 1},
		{"ganged parallel", false, 8},
		{"reference parallel", true, 8},
	} {
		got := collect(c.reference, c.par)
		if len(got) != len(solo) {
			t.Fatalf("%s: %d progress lines, want %d", c.label, len(got), len(solo))
		}
		for i := range solo {
			if got[i] != solo[i] {
				t.Errorf("%s: line %d = %q, want %q (submission order)", c.label, i, got[i], solo[i])
			}
		}
	}
}

// TestGangTelemetryRunNames: telemetry on ganged runs records every run
// under the solo naming, so downstream tooling sees the same run set. The
// tables themselves are compared by TestDifferential's telemetry rows.
func TestGangTelemetryRunNames(t *testing.T) {
	o := parallelOptions(2)
	coll := telemetry.New(telemetry.Config{})
	coll.SetScope("table8")
	o.Telemetry = coll
	if _, err := Table8(o); err != nil {
		t.Fatal(err)
	}
	rep := coll.Snapshot()
	if len(rep.Experiments) != 1 || rep.Experiments[0].Totals.Runs == 0 {
		t.Fatal("telemetry recorded no runs for ganged table8")
	}
	// Ganged runs must keep the solo run naming (one run per original job
	// index) so downstream tooling sees the same run set either way.
	runs := rep.Experiments[0].Runs
	for i, r := range runs {
		if want := fmt.Sprintf("run%d", i); r.Name != want {
			t.Errorf("run %d named %q, want %q", i, r.Name, want)
		}
	}
}

// TestTable6SharesExecutions: Table 6's four component configurations of
// a workload share one gang execution (each execution boots one kernel;
// single-task workloads add their trace-driven run), and a repeated
// render reuses every cached compiled stream.
func TestTable6SharesExecutions(t *testing.T) {
	o := parallelOptions(1)
	want := uint64(0)
	for _, spec := range workload.Specs(o.Scale) {
		want++
		if spec.Tasks == 1 {
			want++
		}
	}
	boots0 := executions.Load()
	if _, err := Table6(o); err != nil {
		t.Fatal(err)
	}
	if boots := executions.Load() - boots0; boots != want {
		t.Errorf("Table6 ran %d executions, want %d", boots, want)
	}
	_, compiles0 := workload.ImageCacheStats()
	if _, err := Table6(o); err != nil {
		t.Fatal(err)
	}
	if _, compiles := workload.ImageCacheStats(); compiles != compiles0 {
		t.Errorf("second Table6 compiled %d streams, want 0", compiles-compiles0)
	}
}
