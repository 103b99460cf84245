// Package experiment regenerates every table and figure of the paper's
// evaluation (Section 4): speed comparisons against trace-driven
// simulation (Table 5, Figures 2-3), completeness and accuracy studies
// (Tables 6-10, Figure 4), and portability analyses (Tables 11-12), plus
// the workload characterizations of Tables 3-4.
//
// Each experiment is a function from Options to a rendered Table. The
// cmd/twbench binary runs them all and writes an EXPERIMENTS-style report;
// bench_test.go at the repository root exposes one testing.B benchmark per
// experiment.
package experiment

import (
	"fmt"
	"sort"
	"strings"

	"tapeworm/internal/mem"
	"tapeworm/internal/resultcache"
	"tapeworm/internal/telemetry"
	"tapeworm/internal/workload"
)

// Options control experiment scale. Paper-faithful settings are expensive
// (minutes); tests use coarser scales.
type Options struct {
	// Scale divides the paper's workload instruction counts (workload
	// package). 100 is the standard evaluation scale; tests use 1000+.
	Scale float64
	// Seed is the master seed; trial t of an experiment derives its
	// page-allocation and sampling seeds from Seed and t.
	Seed uint64
	// Trials is the trial count for the variance tables (paper: 16).
	Trials int
	// Frames is the machine's physical memory size in pages.
	Frames int
	// Parallelism bounds the worker pool that executes an experiment's
	// independent machine runs (internal/sched); 0 selects GOMAXPROCS
	// and 1 reproduces the strictly serial seed behaviour. Every run
	// boots a private kernel, machine and RNG state, and results are
	// assembled in submission order, so rendered tables are
	// byte-identical at any parallelism.
	Parallelism int
	// Progress, if non-nil, receives one line per completed run. Calls
	// are serialized by the run scheduler and delivered in submission
	// order at any parallelism (a held-back heap re-sequences early
	// completions), so terminal output is stable run-to-run.
	Progress func(string)
	// Telemetry, if non-nil, collects per-run metrics and trap events.
	// Each run gets its own telemetry.Run, committed in submission order.
	// Nothing rendered into tables flows through telemetry, so tables
	// are byte-identical with it on or off.
	Telemetry *telemetry.Collector
	// ResultCache serves runs whose full execution identity has been
	// seen before from the process-wide content-addressed result store
	// instead of re-simulating them. Results are byte-identical either
	// way (TestDifferential's result-cache rows): a cached result IS the
	// deterministic output of the identical run that produced it. Gang
	// groups simulate only their missing members. Ignored (cache
	// bypassed) when Telemetry is set — cache hits simulate nothing and
	// so emit no trap events.
	ResultCache bool
	// ResultCacheDir, when set (requires ResultCache), persists results
	// as content-addressed gob files in that directory and loads matching
	// ones, so a repeated sweep costs no simulation at all across
	// processes. Files that fail validation are rejected with a typed
	// resultcache.ErrMismatch/ErrCorrupt.
	ResultCacheDir string
	// PhaseIntervals, when positive, enables representative-interval
	// replay for gang-eligible runs: the compiled stream is sliced into
	// this many fixed-length intervals, clustered into PhaseK phases, and
	// only one representative interval per phase is simulated (forked
	// from a mid-run checkpoint); full-run tables are synthesized by
	// weighted extrapolation. Results are then error-bound-gated, not
	// byte-identical (TestIntervalPinnedErrorBound: at most 0.02
	// absolute miss-ratio error per member). Runs that cannot take the
	// path — non-gang experiments, tracing, telemetry, reference runs,
	// streams beyond the compile budget — fall back to exhaustive
	// replay. Zero disables the mode and tables stay byte-identical.
	PhaseIntervals int
	// PhaseK is the number of phases (k-means clusters) when
	// PhaseIntervals is set; it must satisfy 1 ≤ PhaseK ≤ PhaseIntervals.
	PhaseK int
	// PhaseWarmup is the number of user instructions replayed before
	// each representative's measure window to warm simulator state after
	// a checkpoint fork. Zero is valid (cold windows); it must not be
	// negative, and requires PhaseIntervals.
	PhaseWarmup int

	// reference runs every configuration on the reference executor: the
	// per-reference machine path (mach.Config.NoFastPath), the reference
	// interpreter (workload.NewReference), each configuration as its own
	// execution (gang-opted jobs as gangs of one, baselines solo) and
	// exhaustive replay. Results are byte-identical to the optimized
	// paths; it exists as TestDifferential's oracle, so only in-package
	// tests set it.
	reference bool
}

// Validate rejects option values that would otherwise panic deep inside
// a run (empty trial sets reaching stats.Summarize, bad frame counts
// reaching mem.NewPhys). Every experiment driver calls it before
// scheduling any run.
func (o Options) Validate() error {
	if err := workload.CheckScale(o.Scale); err != nil {
		return fmt.Errorf("experiment: Scale invalid: %w", err)
	}
	if o.Trials < 1 {
		return fmt.Errorf("experiment: Trials must be at least 1, got %d", o.Trials)
	}
	if err := mem.CheckPhysSize(o.Frames, 4096); err != nil {
		return fmt.Errorf("experiment: Frames invalid: %w", err)
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("experiment: Parallelism must be non-negative, got %d", o.Parallelism)
	}
	if o.ResultCacheDir != "" {
		if !o.ResultCache {
			return fmt.Errorf("experiment: ResultCacheDir %q requires ResultCache", o.ResultCacheDir)
		}
		if err := resultcache.CheckDir(o.ResultCacheDir); err != nil {
			return fmt.Errorf("experiment: ResultCacheDir invalid: %w", err)
		}
	}
	if o.PhaseIntervals < 0 {
		return fmt.Errorf("experiment: PhaseIntervals must be non-negative, got %d", o.PhaseIntervals)
	}
	if o.PhaseK < 0 {
		return fmt.Errorf("experiment: PhaseK must be non-negative, got %d", o.PhaseK)
	}
	if o.PhaseWarmup < 0 {
		return fmt.Errorf("experiment: PhaseWarmup must be non-negative, got %d", o.PhaseWarmup)
	}
	if o.PhaseIntervals > 0 {
		if o.PhaseK < 1 {
			return fmt.Errorf("experiment: PhaseIntervals %d requires PhaseK of at least 1", o.PhaseIntervals)
		}
		if o.PhaseK > o.PhaseIntervals {
			return fmt.Errorf("experiment: PhaseK %d exceeds PhaseIntervals %d", o.PhaseK, o.PhaseIntervals)
		}
	} else if o.PhaseK != 0 || o.PhaseWarmup != 0 {
		return fmt.Errorf("experiment: PhaseK/PhaseWarmup require PhaseIntervals")
	}
	return nil
}

// DefaultOptions returns the standard evaluation configuration.
func DefaultOptions() Options {
	return Options{Scale: 100, Seed: 1994, Trials: 16, Frames: 8192}
}

// QuickOptions returns a configuration coarse enough for unit tests.
func QuickOptions() Options {
	return Options{Scale: 2000, Seed: 1994, Trials: 4, Frames: 4096}
}

func (o Options) progress(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(fmt.Sprintf(format, args...))
	}
}

// Table is a rendered experiment result.
type Table struct {
	ID      string // "table6", "figure2", ...
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render formats the table as aligned monospace text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", strings.ToUpper(t.ID), t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				fmt.Fprintf(&b, "%*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Func produces one experiment table.
type Func func(Options) (*Table, error)

// registry maps experiment IDs to their functions, in paper order.
var registry = []struct {
	ID   string
	Fn   Func
	Desc string
}{
	{"table3", Table3, "workload summary"},
	{"table4", Table4, "workload and operating system summary"},
	{"table5", Table5, "Tapeworm miss handling time"},
	{"figure2", Figure2, "trace-driven vs trap-driven slowdowns"},
	{"figure3", Figure3, "slowdowns across configurations and sampling"},
	{"table6", Table6, "miss contributions of workload components"},
	{"table7", Table7, "variation in measured memory system performance"},
	{"table8", Table8, "variation due to set sampling"},
	{"table9", Table9, "variation due to page allocation"},
	{"table10", Table10, "measurement variation removed"},
	{"figure4", Figure4, "error due to time dilation"},
	{"table11", Table11, "Tapeworm code distribution"},
	{"table12", Table12, "privileged operations on modern microprocessors"},
	// Extensions beyond the paper's tables and figures.
	{"ext-ablation", ExtAblation, "handler implementation ablation"},
	{"ext-breakeven", ExtBreakEven, "trap- vs trace-driven crossover"},
	{"ext-fragmentation", ExtFragmentation, "long-running TLB fragmentation"},
	{"ext-replacement", ExtReplacement, "replacement fidelity gap"},
}

// IDs returns the experiment identifiers in paper order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, r := range registry {
		out[i] = r.ID
	}
	return out
}

// Describe returns the one-line description of an experiment ID.
func Describe(id string) string {
	for _, r := range registry {
		if r.ID == id {
			return r.Desc
		}
	}
	return ""
}

// ByID returns the experiment function for id.
func ByID(id string) (Func, error) {
	for _, r := range registry {
		if r.ID == id {
			return r.Fn, nil
		}
	}
	known := IDs()
	sort.Strings(known)
	return nil, fmt.Errorf("experiment: unknown id %q (known: %s)", id, strings.Join(known, ", "))
}

// --- small formatting helpers shared by the experiment files ---

func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func f3(x float64) string { return fmt.Sprintf("%.3f", x) }

func pct(x float64) string { return fmt.Sprintf("(%.0f%%)", x) }

// millions renders a count in millions with two decimals, the paper's
// habitual unit for miss counts; at reduced scale the magnitudes are
// smaller but the format stays comparable.
func millions(x float64) string { return fmt.Sprintf("%.3f", x/1e6) }

func sizeKB(bytes int) string {
	switch {
	case bytes >= 1<<20:
		return fmt.Sprintf("%dM", bytes>>20)
	case bytes >= 1<<10:
		return fmt.Sprintf("%dK", bytes>>10)
	}
	return fmt.Sprintf("%dB", bytes)
}
