package main

import (
	"strconv"
	"testing"

	"tapeworm/internal/experiment"
)

// contractPath is BENCHMARK.json seen from this package's directory.
const contractPath = "../BENCHMARK.json"

func TestContractAgreesWithRunner(t *testing.T) {
	c, err := loadContract(contractPath)
	if err != nil {
		t.Fatal(err)
	}
	names := scenarioNames()
	if len(c.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the runner has %d", len(c.Workloads), len(names))
	}
	for i, w := range c.Workloads {
		s, ok := scenarioByName(w.Name)
		if !ok || names[i] != w.Name {
			t.Errorf("workload %d: declared %q, runner has %q", i, w.Name, names[i])
			continue
		}
		if w.Why != s.why {
			t.Errorf("%s: declared why %q, runner says %q", w.Name, w.Why, s.why)
		}
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json declares %d end-to-end metrics, the runner %d", len(c.EndToEnd), len(endToEnd))
	}
	for i := range min(len(c.EndToEnd), len(endToEnd)) {
		got, want := c.EndToEnd[i], endToEnd[i]
		if got.Name != want.name || got.Unit != want.unit || got.Better != want.better {
			t.Errorf("end-to-end %d: declared %+v, runner %+v", i, got, want)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", got.Name, got.Bound)
		}
	}
	if len(c.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, the runner %d", len(c.PerLayer), len(perLayer))
	}
	for i := range min(len(c.PerLayer), len(perLayer)) {
		got, want := c.PerLayer[i], perLayer[i]
		if got.Name != want.name || got.Unit != want.unit || got.Better != want.better {
			t.Errorf("per-layer %d: declared %+v, runner %+v", i, got, want)
		}
	}
}

func TestMetricNamesAreValid(t *testing.T) {
	if len(endToEnd) > maxEndToEnd || len(perLayer) > maxPerLayer {
		t.Fatalf("%d end-to-end / %d per-layer metrics exceed %d / %d", len(endToEnd), len(perLayer), maxEndToEnd, maxPerLayer)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]layerMetric{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.name) {
			t.Errorf("metric name %q does not match %s", m.name, nameRE)
		}
		if seen[m.name] {
			t.Errorf("metric %q declared twice", m.name)
		}
		seen[m.name] = true
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("%s: better = %q", m.name, m.better)
		}
	}
}

func TestCheckMetricsRejectsDisagreement(t *testing.T) {
	want := []contractMetric{{Name: "wall_s", Unit: "s"}}
	if err := checkMetrics(map[string]metric{"wall_s": {1, "s"}}, want); err != nil {
		t.Errorf("matching metrics rejected: %v", err)
	}
	for _, got := range []map[string]metric{
		{},
		{"wall_s": {1, "ms"}},
		{"wall_s": {1, "s"}, "extra": {1, "s"}},
	} {
		if err := checkMetrics(got, want); err == nil {
			t.Errorf("checkMetrics(%v) accepted a disagreement", got)
		}
	}
}

func TestSeedsMapOntoThePool(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, 8, 9, -1, -8, 1 << 40} {
		i := poolIndex(seed)
		if i < 0 || i >= len(seedPool) {
			t.Fatalf("poolIndex(%d) = %d", seed, i)
		}
		if i != poolIndex(seed+int64(len(seedPool))) {
			t.Errorf("seed %d and %d map to different pool seeds", seed, seed+int64(len(seedPool)))
		}
	}
}

func TestGoldenCoversEverySeed(t *testing.T) {
	g, err := loadGolden("golden.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range scenarioNames() {
		for _, seed := range seedPool {
			d, ref := g.forSeed(name, seed)
			if len(d) == 0 {
				t.Errorf("%s seed %d: no golden digests", name, seed)
			}
			if name == "sweep-sampled" && len(ref) != wideGrid.Points() {
				t.Errorf("%s seed %d: %d reference points, want %d", name, seed, len(ref), wideGrid.Points())
			}
		}
	}
}

// TestSmoke runs every workload at a tiny scale, untraced and traced,
// and checks the output contract, that nothing failed, and that the
// traced run reproduces the untraced run's digests exactly.
func TestSmoke(t *testing.T) {
	c, err := loadContract(contractPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range scenarios {
		t.Run(s.name, func(t *testing.T) {
			digests := map[bool]map[string]string{}
			for _, traced := range []bool{false, true} {
				b := &bench{w: s, seed: seedPool[0], tiny: true, traced: traced}
				metrics, err := b.run()
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				want := c.EndToEnd
				if traced {
					want = c.PerLayer
				}
				if err := checkMetrics(metrics, want); err != nil {
					t.Errorf("traced=%v: %v", traced, err)
				}
				if b.attempted < 1 || b.failed != 0 {
					t.Errorf("traced=%v: %d of %d operations failed: %v", traced, b.failed, b.attempted, b.failures)
				}
				if traced {
					if cov := metrics["trace.coverage"].Value; cov < 0.9 {
						t.Errorf("trace.coverage = %.3f, want >= 0.9", cov)
					}
				} else {
					for name, m := range metrics {
						if !(m.Value > 0) {
							t.Errorf("end-to-end %s = %v, want > 0", name, m.Value)
						}
					}
				}
				digests[traced] = b.got
			}
			if len(digests[false]) != len(digests[true]) {
				t.Fatalf("untraced run saw %d operations, traced %d", len(digests[false]), len(digests[true]))
			}
			for op, d := range digests[false] {
				if digests[true][op] != d {
					t.Errorf("%s: untraced digest %s, traced %s", op, d, digests[true][op])
				}
			}
		})
	}
}

func TestSampledAccuracyCheck(t *testing.T) {
	ref := map[string]string{"1K-1-way-16B": "10.000"}
	tab := func(mpki float64) [][]string {
		return [][]string{{"1K", "1-way", "16B", "1", "1", strconv.FormatFloat(mpki, 'f', 3, 64), "1.00"}}
	}
	for _, c := range []struct {
		mpki  float64
		worst float64
	}{{10, 0}, {15, 0.005}, {40, 0.03}} {
		got, err := worstMissRatioErr(tableOf(tab(c.mpki)), ref)
		if err != nil {
			t.Fatal(err)
		}
		if d := got - c.worst; d > 1e-12 || d < -1e-12 {
			t.Errorf("mpki %v: worst error %v, want %v", c.mpki, got, c.worst)
		}
	}
	if _, err := worstMissRatioErr(tableOf([][]string{{"2K", "1-way", "16B", "1", "1", "1.000", "1"}}), ref); err == nil {
		t.Error("a grid point without a reference was accepted")
	}
}

func tableOf(rows [][]string) *experiment.Table { return &experiment.Table{ID: "sweep", Rows: rows} }
