// Command perfbench is the repository's benchmark runner. It runs one
// named workload against the simulator's public packages for a fixed
// number of host seconds, checks every simulated result against golden
// digests recorded in golden.json, and prints one JSON object as the last
// line of standard output:
//
//	{"correct": true, "attempted": 16, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end figures a user of the
// simulator sees; with -trace 1 they are the per-layer ledger, built by
// timing calls into each package from this directory's own code (spans
// at package boundaries, counts read through public accessors). Both
// metric sets are declared in BENCHMARK.json at the repository root; the
// runner refuses to print metrics that disagree with it.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload sweep-gang --seed 3 --seconds 15 --trace 0
//	bash perfbench/run.sh --workload solo-hits --record-golden
//	bash perfbench/run.sh --provenance
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"syscall"
)

// The runner reads its declaration and golden digests relative to the
// repository root, where it runs.
const (
	contractFile = "BENCHMARK.json"
	goldenPath   = "perfbench/golden.json"
)

// seedPool holds the simulation seeds golden digests are recorded for.
// The -seed argument selects one: the same -seed always gives the same
// inputs, and every seed a caller may pass maps onto a recorded one.
var seedPool = []uint64{1994, 1995, 1996, 1997, 1998, 1999, 2000, 2001}

func poolIndex(seed int64) int {
	n := int64(len(seedPool))
	return int(((seed % n) + n) % n)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the runner's final output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run ("+strings.Join(scenarioNames(), ", ")+")")
		seed         = flag.Int64("seed", 0, "workload seed; selects one of the recorded simulation seeds")
		seconds      = flag.Float64("seconds", 15, "host seconds to measure for")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger from a traced run")
		record       = flag.Bool("record-golden", false, "record golden digests for every pool seed of -workload and exit")
		provenance   = flag.Bool("provenance", false, "run the scale-100 sampled-sweep provenance check and exit")
	)
	flag.Parse()

	if *provenance {
		if err := runProvenance(); err != nil {
			fail(err)
		}
		return
	}
	w, ok := scenarioByName(*workloadName)
	if !ok {
		fail(fmt.Errorf("unknown workload %q (known: %s)", *workloadName, strings.Join(scenarioNames(), ", ")))
	}
	if *record {
		if err := recordGolden(w, goldenPath); err != nil {
			fail(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	c, err := loadContract(contractFile)
	if err != nil {
		fail(err)
	}
	if err := c.checkWorkload(w.name); err != nil {
		fail(err)
	}

	b := &bench{
		w:       w,
		seed:    seedPool[poolIndex(*seed)],
		traced:  *trace == 1,
		seconds: *seconds,
	}
	g, err := loadGolden(goldenPath)
	if err != nil {
		fail(err)
	}
	b.golden, b.reference = g.forSeed(w.name, b.seed)
	if b.golden == nil {
		fail(fmt.Errorf("no golden digests for %s seed %d in %s", w.name, b.seed, goldenPath))
	}
	metrics, err := b.run()
	if err != nil {
		fail(err)
	}
	want := c.EndToEnd
	if b.traced {
		want = c.PerLayer
	}
	if err := checkMetrics(metrics, want); err != nil {
		fail(err)
	}
	for _, f := range b.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", f)
	}
	out, err := json.Marshal(report{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// --- BENCHMARK.json agreement ---

// contractMetric is one metric declaration in BENCHMARK.json.
type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// contract is the part of BENCHMARK.json the runner checks itself against.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

const (
	maxEndToEnd = 16
	maxPerLayer = 128
)

func loadContract(path string) (*contract, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark declaration: %w", err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(c.EndToEnd) == 0 || len(c.EndToEnd) > maxEndToEnd {
		return nil, fmt.Errorf("%s: %d end-to-end metrics, want 1..%d", path, len(c.EndToEnd), maxEndToEnd)
	}
	if len(c.PerLayer) == 0 || len(c.PerLayer) > maxPerLayer {
		return nil, fmt.Errorf("%s: %d per-layer metrics, want 1..%d", path, len(c.PerLayer), maxPerLayer)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]contractMetric{}, c.EndToEnd...), c.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			return nil, fmt.Errorf("%s: metric name %q does not match %s", path, m.Name, nameRE)
		}
		if seen[m.Name] {
			return nil, fmt.Errorf("%s: metric %q declared twice", path, m.Name)
		}
		seen[m.Name] = true
	}
	return &c, nil
}

func (c *contract) checkWorkload(name string) error {
	for _, w := range c.Workloads {
		if w.Name == name {
			return nil
		}
	}
	return fmt.Errorf("workload %q is not declared in BENCHMARK.json", name)
}

// checkMetrics requires the emitted metrics to be exactly the declared
// set, unit for unit.
func checkMetrics(got map[string]metric, want []contractMetric) error {
	var problems []string
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			problems = append(problems, "missing "+m.Name)
		case g.Unit != m.Unit:
			problems = append(problems, fmt.Sprintf("%s unit %q, declared %q", m.Name, g.Unit, m.Unit))
		}
	}
	declared := map[string]bool{}
	for _, m := range want {
		declared[m.Name] = true
	}
	var extra []string
	for name := range got {
		if !declared[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		problems = append(problems, "undeclared "+name)
	}
	if len(problems) > 0 {
		return fmt.Errorf("metrics disagree with BENCHMARK.json: %s", strings.Join(problems, "; "))
	}
	return nil
}
