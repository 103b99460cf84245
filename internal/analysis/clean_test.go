package analysis_test

import (
	"os/exec"
	"strings"
	"testing"

	"tapeworm/internal/analysis"
	"tapeworm/internal/analysis/passes/suite"
)

// moduleRoot locates the module directory so the test can run the suite
// over the real tree.
func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("go list -m: %v", err)
	}
	return strings.TrimSpace(string(out))
}

// TestTreeClean runs the full analyzer suite over the repository, as
// `twvet ./...` does: the tree must carry no violations. This is the test
// that fails when someone reintroduces an unordered map walk, an
// unguarded telemetry call, an unhashed digest field, an unbalanced lock,
// or an unvalidated options path.
func TestTreeClean(t *testing.T) {
	diags, err := analysis.Run(moduleRoot(t), []string{"./..."}, suite.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
