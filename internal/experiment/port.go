package experiment

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"tapeworm/internal/arch"
	"tapeworm/internal/sched"
)

// simCommands are the commands under cmd/ that run the simulator. The
// rest (the twvet linter and the twcodecount line counter) control no
// simulation, so Table 11 does not count them as Tapeworm.
var simCommands = []string{"tracesim", "twbench", "twcal", "twsim", "twsweep"}

// Table11 reports the code distribution of this Tapeworm implementation in
// the paper's three categories: machine-dependent kernel code (the trap
// mechanisms in internal/core/machdep_*.go), machine-independent kernel
// code (the rest of the simulator core), and machine-independent user
// code (the experiment harness, the examples and the simCommands that
// control the simulator, like the paper's user-level X application). The
// paper's claim — under 5% of Tapeworm is machine-dependent — should
// survive the port to Go.
func Table11(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	root, err := findRepoRoot()
	if err != nil {
		return nil, err
	}
	type category struct {
		name  string
		lines int
	}
	cats := []category{
		{name: "machine-dependent kernel code"},
		{name: "machine-independent kernel code"},
		{name: "machine-independent user code"},
	}
	classify := func(rel string) int {
		switch {
		case strings.HasPrefix(rel, "internal/core/machdep_"):
			return 0
		case strings.HasPrefix(rel, "internal/core/"):
			return 1
		case strings.HasPrefix(rel, "internal/experiment/"),
			strings.HasPrefix(rel, "examples/"),
			strings.HasPrefix(rel, "cmd/") && slices.Contains(simCommands, strings.Split(rel, "/")[1]):
			return 2
		default:
			return -1 // substrates (the simulated machine/OS) and tools: not Tapeworm
		}
	}
	// Walk serially (directory order defines determinism), then count
	// lines of the collected files on the run scheduler's worker pool.
	type file struct {
		path string
		cat  int
	}
	var files []file
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if idx := classify(filepath.ToSlash(rel)); idx >= 0 {
			files = append(files, file{path: path, cat: idx})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	jobs := make([]sched.Job[int], len(files))
	for i := range files {
		path := files[i].path
		jobs[i] = func() (int, error) { return countLines(path) }
	}
	counts, err := sched.Run(o.Parallelism, jobs, nil)
	if err != nil {
		return nil, err
	}
	for i, f := range files {
		cats[f.cat].lines += counts[i]
	}

	total := 0
	for _, c := range cats {
		total += c.lines
	}
	t := &Table{
		ID:      "table11",
		Title:   "Tapeworm code distribution (this implementation)",
		Columns: []string{"code", "lines", "%"},
		Notes: []string{
			"counts non-blank lines of non-test Go source; substrate packages (the simulated machine and OS) are excluded, as the paper counts only Tapeworm itself",
		},
	}
	for _, c := range cats {
		p := 0.0
		if total > 0 {
			p = 100 * float64(c.lines) / float64(total)
		}
		t.Rows = append(t.Rows, []string{c.name, fmt.Sprint(c.lines), fmt.Sprintf("%.0f%%", p)})
	}
	t.Rows = append(t.Rows, []string{"total", fmt.Sprint(total), "100%"})
	return t, nil
}

// findRepoRoot walks up from the working directory to the module root.
func findRepoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("experiment: go.mod not found above %s (run inside the repository)", dir)
		}
		dir = parent
	}
}

// countLines returns the number of non-blank lines in a file.
func countLines(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n, nil
}

// Table12 renders the privileged-operation capability matrix of the ten
// surveyed microprocessors, plus the trap mechanism each port would select
// for cache-line-granularity and page-granularity simulation.
func Table12(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	procs := arch.Table12()
	t := &Table{
		ID:      "table12",
		Title:   "privileged operations on modern microprocessors",
		Columns: []string{"privileged operation"},
		Notes: []string{
			"an affirmative means at least one surveyed system with the processor implements the feature; blank means insufficient data",
		},
	}
	for _, p := range procs {
		t.Columns = append(t.Columns, p.Name)
	}
	for _, op := range arch.Ops() {
		row := []string{op.String()}
		for _, p := range procs {
			row = append(row, p.Ops[op].String())
		}
		t.Rows = append(t.Rows, row)
	}
	// Mechanism selection per port (Section 3.2 applied to Table 12).
	lineRow := []string{"-> mechanism for 16B line traps"}
	pageRow := []string{"-> mechanism for page traps"}
	for _, p := range procs {
		if m, err := arch.SelectMechanism(p, 16); err == nil {
			lineRow = append(lineRow, m.String())
		} else {
			lineRow = append(lineRow, "none")
		}
		if m, err := arch.SelectMechanism(p, p.PageSizes[0]); err == nil {
			pageRow = append(pageRow, m.String())
		} else {
			pageRow = append(pageRow, "none")
		}
	}
	t.Rows = append(t.Rows, lineRow, pageRow)
	return t, nil
}
