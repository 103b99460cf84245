package experiment

import (
	"fmt"
	"strings"
	"testing"

	"tapeworm/internal/telemetry"
	"tapeworm/internal/workload"
)

// TestGangDeterminism is the in-process version of the `make verify-gang`
// gate: gang-eligible experiments must render byte-identical tables with
// grouping on and off, serial and parallel. figure3 gangs an entire sweep
// into one execution; table8 gangs per trial; table6 gangs members with
// different component attributes (user, servers, kernel, all activity)
// into one execution per workload, next to its solo trace-driven run.
func TestGangDeterminism(t *testing.T) {
	for _, id := range []string{"figure3", "table8", "table6"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			fn, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			render := func(parallelism int, noGang bool) string {
				o := parallelOptions(parallelism)
				o.NoGang = noGang
				tab, err := fn(o)
				if err != nil {
					t.Fatal(err)
				}
				return tab.Render()
			}
			ganged := render(1, false)
			for _, c := range []struct {
				label string
				got   string
			}{
				{"solo -parallel 1", render(1, true)},
				{"ganged -parallel 8", render(8, false)},
				{"solo -parallel 8", render(8, true)},
			} {
				if c.got != ganged {
					t.Errorf("%s: %s differs from ganged serial render:\n--- ganged ---\n%s\n--- %s ---\n%s",
						id, c.label, ganged, c.label, c.got)
				}
			}
		})
	}
}

// TestGangProgressOrder: a gang completes many configurations at once, but
// progress lines must still arrive one per configuration in submission
// order — identical to the solo-run sequence.
func TestGangProgressOrder(t *testing.T) {
	collect := func(noGang bool, parallelism int) []string {
		o := parallelOptions(parallelism)
		o.NoGang = noGang
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
		label  string
		noGang bool
		par    int
	}{
		{"ganged serial", false, 1},
		{"ganged parallel", false, 8},
		{"solo parallel", true, 8},
	} {
		got := collect(c.noGang, c.par)
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

// TestGangTelemetryKeepsTablesIdentical: enabling telemetry must not
// change a ganged table's bytes (nothing rendered flows through
// telemetry), and per-run telemetry names must match the solo naming so
// downstream tooling sees the same run set.
func TestGangTelemetryKeepsTablesIdentical(t *testing.T) {
	o := parallelOptions(2)
	base, err := Table8(o)
	if err != nil {
		t.Fatal(err)
	}
	coll := telemetry.New(telemetry.Config{})
	coll.SetScope("table8")
	o.Telemetry = coll
	withTel, err := Table8(o)
	if err != nil {
		t.Fatal(err)
	}
	if base.Render() != withTel.Render() {
		t.Error("table8 render changed when telemetry was enabled on ganged runs")
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
