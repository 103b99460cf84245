package tapeworm_test

import (
	"errors"
	"fmt"
	"os/exec"
	"strings"
	"testing"
)

// benchstatOutput renders a comparison in benchstat's table format: one
// table per unit (sec/op, then B/op), each with a significant or "~"
// delta on its benchmark row and a geomean row.
func benchstatOutput(secDelta, secGeomean, bDelta string) string {
	table := func(unit, base, change, delta, geomean string) string {
		return fmt.Sprintf(`                              │ /tmp/bench-base.txt │         /tmp/bench-pr.txt          │
                              │ %11s         │ %11s   vs base              │
Figure2_SlowdownVsCacheSize-2          %s ± 2%%      %s ± 3%%  %s
Figure3_Configurations-2               %s ± 1%%      %s ± 1%%        ~ (p=0.310 n=6)
geomean                                %s           %s        %s
`, unit, unit, base, change, delta, base, base, base, change, geomean)
	}
	return "goos: linux\ngoarch: amd64\npkg: tapeworm\ncpu: test\n" +
		table("sec/op", "1.234", "1.451", secDelta, secGeomean) + "\n" +
		table("B/op", "1.000Mi", "1.176Mi", bDelta, "+8.44%")
}

// TestBenchGate feeds CI's benchmark gate (.github/benchgate.awk)
// benchstat tables: a significant sec/op slowdown above 10% must fail it;
// the same slowdown in B/op, an insignificant change, an improvement, a
// slowdown within the bound and a geomean alone must pass.
func TestBenchGate(t *testing.T) {
	awk, err := exec.LookPath("awk")
	if err != nil {
		t.Skip("awk not on PATH")
	}
	const sig, same = "+17.58% (p=0.002 n=6)", "~ (p=0.310 n=6)"
	cases := []struct {
		name, in string
		fail     bool
	}{
		{"sec/op slowdown", benchstatOutput(sig, "+8.72%", same), true},
		{"B/op slowdown", benchstatOutput(same, "+0.25%", sig), false},
		{"insignificant", benchstatOutput(same, "+0.25%", same), false},
		{"improvement", benchstatOutput("-17.58% (p=0.002 n=6)", "-9.01%", same), false},
		{"within bound", benchstatOutput("+9.50% (p=0.002 n=6)", "+4.64%", same), false},
		{"geomean only", benchstatOutput(same, "+12.00%", same), false},
	}
	for _, c := range cases {
		cmd := exec.Command(awk, "-f", ".github/benchgate.awk")
		cmd.Stdin = strings.NewReader(c.in)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatalf("%s: %v", c.name, err)
		}
		if failed := err != nil; failed != c.fail {
			t.Errorf("%s: gate failed = %v, want %v\n%s\ninput:\n%s", c.name, failed, c.fail, out, c.in)
		}
	}
}
