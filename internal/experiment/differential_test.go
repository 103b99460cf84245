package experiment

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"tapeworm/internal/sched"
	"tapeworm/internal/telemetry"
)

// differentialOptions is the base of every TestDifferential row: the
// default options at scale 4000, 2 trials and -parallel 1.
func differentialOptions() Options {
	o := DefaultOptions()
	o.Scale, o.Trials, o.Parallelism = 4000, 2, 1
	return o
}

// twsweepGrid is twsweep's default design-space grid.
func twsweepGrid() SweepConfig {
	return SweepConfig{Workload: "mpeg_play",
		Sizes: []int{1 << 10, 4 << 10, 16 << 10}, Assocs: []int{1, 2, 4}, Lines: []int{16, 32}}
}

// TestDifferential is the byte-identity gate for every execution path.
// Each row renders its experiments with one combination of path options
// and must match the base render byte for byte. The reference executor
// (Options.reference) is the oracle: per-reference machine path, reference
// interpreter, one execution per configuration, exhaustive replay. Every
// experiment gets one reference render serially and one at parallel 8;
// the telemetered experiments take the latter with telemetry on, which on
// the reference executor switches off no rider, cache or sampling, so it
// attaches observers to the same executions. The next optimization adds
// a row here.
func TestDifferential(t *testing.T) {
	telemetered := []string{"figure2", "figure3", "table6", "table7", "table8", "table9", "table10"}
	var simulated, untelemetered []string // table11 counts source lines and simulates nothing
	for _, id := range IDs() {
		if id == "table11" {
			continue
		}
		simulated = append(simulated, id)
		if !slices.Contains(telemetered, id) {
			untelemetered = append(untelemetered, id)
		}
	}

	// The base renders run on the package's own worker pool, each at
	// parallel 1.
	jobs := make([]sched.Job[string], len(simulated))
	for i, id := range simulated {
		jobs[i] = func() (string, error) { return render(id, differentialOptions()) }
	}
	renders, err := sched.Run(0, jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := make(map[string]string, len(simulated))
	for i, id := range simulated {
		base[id] = renders[i]
	}

	// figure2's metrics JSON per telemetry row, wall_seconds lines dropped;
	// both rows run unless -run filters one out.
	var metrics []string
	for _, row := range []struct {
		name      string
		ids       []string
		reference bool
		parallel  int
		telemetry bool
	}{
		{"parallel 8", simulated, false, 8, false},
		{"reference", simulated, true, 1, false},
		{"reference parallel 8", untelemetered, true, 8, false},
		{"telemetry parallel 8", telemetered, false, 8, true},
		{"reference telemetry parallel 8", telemetered, true, 8, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			for _, id := range row.ids {
				t.Run(id, func(t *testing.T) {
					t.Parallel()
					o := differentialOptions()
					o.reference, o.Parallelism = row.reference, row.parallel
					var coll *telemetry.Collector
					if row.telemetry {
						coll = telemetry.New(telemetry.Config{})
						coll.SetScope(id)
						o.Telemetry = coll
					}
					got, err := render(id, o)
					if err != nil {
						t.Fatal(err)
					}
					if got != base[id] {
						t.Errorf("%s: render differs from the base:\n--- base ---\n%s\n--- %s ---\n%s",
							id, base[id], row.name, got)
					}
					if coll != nil && id == "figure2" {
						metrics = append(metrics, metricsWithoutWallTime(t, coll))
					}
				})
			}
		})
	}
	if len(metrics) == 2 && metrics[0] != metrics[1] {
		t.Errorf("figure2 metrics differ between the telemetry rows:\n--- optimized ---\n%s\n--- reference ---\n%s",
			metrics[0], metrics[1])
	}

	// The sweep rows run twsweep's default grid. The result store and the
	// interval caches are process-wide, so these rows run at their own
	// seed and never in parallel.
	sweepOptions := func() Options {
		o := differentialOptions()
		o.Seed, o.Trials = 2001, 1
		return o
	}
	sweepBase := renderSweep(t, sweepOptions())

	t.Run("result cache", func(t *testing.T) {
		ResetResultCache()
		for _, leg := range []struct {
			name      string
			reference bool
			parallel  int
		}{{"cold", false, 1}, {"warm", false, 1}, {"warm parallel 8", false, 8}, {"reference parallel 8", true, 8}} {
			o := sweepOptions()
			o.ResultCache = true
			o.reference, o.Parallelism = leg.reference, leg.parallel
			if got := renderSweep(t, o); got != sweepBase {
				t.Errorf("%s: render differs from the cache-off render:\n--- off ---\n%s\n--- %s ---\n%s",
					leg.name, sweepBase, leg.name, got)
			}
		}
		requireNoClaimsInFlight(t)
	})

	t.Run("result cache persisted", func(t *testing.T) {
		o := sweepOptions()
		o.ResultCache, o.ResultCacheDir, o.Parallelism = true, t.TempDir(), 8
		for _, leg := range []string{"write", "reload"} {
			ResetResultCache()
			if got := renderSweep(t, o); got != sweepBase {
				t.Errorf("%s: render differs from the cache-off render:\n--- off ---\n%s\n--- %s ---\n%s",
					leg, sweepBase, leg, got)
			}
		}
		if st := ResultCacheStats(); st.Loads == 0 {
			t.Error("reload served nothing from the persisted directory")
		}
		requireNoClaimsInFlight(t)
	})

	sampledOptions := func() Options {
		o := sweepOptions()
		o.PhaseIntervals, o.PhaseK, o.PhaseWarmup = 64, 3, 2000
		return o
	}
	sampled := renderSweep(t, sampledOptions())

	t.Run("sampled parallel 8", func(t *testing.T) {
		_, groups0 := IntervalStats()
		o := sampledOptions()
		o.Parallelism = 8
		got := renderSweep(t, o)
		if _, groups := IntervalStats(); groups == groups0 {
			t.Fatal("no group took the interval path; the row would compare two exhaustive renders")
		}
		if got != sampled {
			t.Errorf("render differs from the serial sampled render:\n--- sampled ---\n%s\n--- sampled parallel 8 ---\n%s",
				sampled, got)
		}
	})

	t.Run("sampled reference", func(t *testing.T) {
		o := sampledOptions()
		o.reference = true
		if got := renderSweep(t, o); got != sweepBase {
			t.Errorf("reference runs must fall back to exhaustive replay:\n--- base ---\n%s\n--- sampled reference ---\n%s",
				sweepBase, got)
		}
	})
}

func render(id string, o Options) (string, error) {
	fn, err := ByID(id)
	if err != nil {
		return "", err
	}
	tab, err := fn(o)
	if err != nil {
		return "", fmt.Errorf("%s: %w", id, err)
	}
	return tab.Render(), nil
}

func renderSweep(t *testing.T, o Options) string {
	t.Helper()
	tab, err := Sweep(o, twsweepGrid())
	if err != nil {
		t.Fatal(err)
	}
	return tab.Render()
}

// metricsWithoutWallTime renders coll's metrics report without its
// wall_seconds lines, the only host-time fields in it.
func metricsWithoutWallTime(t *testing.T, coll *telemetry.Collector) string {
	t.Helper()
	var buf bytes.Buffer
	if err := coll.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.Contains(line, "wall_seconds") {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "\n")
}
