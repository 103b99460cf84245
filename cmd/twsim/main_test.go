package main

import (
	"math"
	"strings"
	"testing"
)

func TestParseSampleValid(t *testing.T) {
	for _, tc := range []struct {
		in       string
		num, den int
	}{
		{"1/1", 1, 1},
		{"1/8", 1, 8},
		{"3/4", 3, 4},
	} {
		num, den, err := parseSample(tc.in)
		if err != nil {
			t.Errorf("parseSample(%q): %v", tc.in, err)
			continue
		}
		if num != tc.num || den != tc.den {
			t.Errorf("parseSample(%q) = %d/%d, want %d/%d", tc.in, num, den, tc.num, tc.den)
		}
	}
}

func TestParseSampleRejectsMalformed(t *testing.T) {
	for _, in := range []string{
		"", "1", "1/", "/8", "a/b", "0/0", "0/8", "1/0", "-1/8", "1/-8", "9/8",
	} {
		if _, _, err := parseSample(in); err == nil {
			t.Errorf("parseSample(%q) accepted, want error", in)
		}
	}
}

func TestValidatePhaseFlags(t *testing.T) {
	if err := validatePhaseFlags(0, 0, 0, "decstation", false, 0, 0); err != nil {
		t.Errorf("phase-off defaults rejected: %v", err)
	}
	if err := validatePhaseFlags(64, 4, 3000, "decstation", false, 0, 0); err != nil {
		t.Errorf("valid phase flags rejected: %v", err)
	}
	// Phase sampling off leaves the rest of the flag space alone.
	if err := validatePhaseFlags(0, 0, 0, "486", true, 100, 200); err != nil {
		t.Errorf("phase-off with unrelated flags rejected: %v", err)
	}
	for _, tc := range []struct {
		name                 string
		intervals, k, warmup int
		machine              string
		telemetry            bool
		warmupInstr, measure uint64
		want                 string
	}{
		{"negative intervals", -1, 0, 0, "decstation", false, 0, 0, "-phase-intervals"},
		{"negative k", 8, -2, 0, "decstation", false, 0, 0, "-phase-k"},
		{"negative warmup", 8, 2, -5, "decstation", false, 0, 0, "-phase-warmup"},
		{"k without intervals", 0, 2, 0, "decstation", false, 0, 0, "requires -phase-intervals"},
		{"warmup without intervals", 0, 0, 500, "decstation", false, 0, 0, "requires -phase-intervals"},
		{"zero k with intervals", 8, 0, 0, "decstation", false, 0, 0, "-phase-k of at least 1"},
		{"k exceeds intervals", 4, 5, 0, "decstation", false, 0, 0, "exceeds -phase-intervals"},
		{"wrong machine", 8, 2, 0, "486", false, 0, 0, "-machine decstation"},
		{"telemetry on", 8, 2, 0, "decstation", true, 0, 0, "-metrics"},
		{"explicit warmup window", 8, 2, 0, "decstation", false, 1000, 0, "-warmup"},
		{"explicit measure window", 8, 2, 0, "decstation", false, 0, 5000, "-warmup"},
	} {
		err := validatePhaseFlags(tc.intervals, tc.k, tc.warmup, tc.machine,
			tc.telemetry, tc.warmupInstr, tc.measure)
		if err == nil {
			t.Errorf("%s: accepted, want error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestValidateRunFlags(t *testing.T) {
	if err := validateRunFlags(0, 8192, 400); err != nil {
		t.Errorf("default flags rejected: %v", err)
	}
	if err := validateRunFlags(8, 4096, 100); err != nil {
		t.Errorf("valid flags rejected: %v", err)
	}
	for _, tc := range []struct {
		name     string
		parallel int
		frames   int
		scale    float64
		want     string
	}{
		{"negative parallel", -1, 8192, 400, "-parallel"},
		{"zero frames", 0, 0, 400, "-frames"},
		{"negative frames", 0, -4, 400, "-frames"},
		{"frames beyond 32-bit space", 0, 1 << 21, 400, "-frames"},
		{"zero scale", 0, 8192, 0, "-scale"},
		{"negative scale", 0, 8192, -5, "-scale"},
		{"NaN scale", 0, 8192, math.NaN(), "-scale"},
		{"infinite scale", 0, 8192, math.Inf(1), "-scale"},
		{"scale leaving no instructions", 0, 8192, 1e12, "-scale"},
		{"scale past 2^53 instructions", 0, 8192, 1e-300, "-scale"},
		{"scale leaving a workload no user instruction", 0, 8192, 1e8, "-scale"},
	} {
		err := validateRunFlags(tc.parallel, tc.frames, tc.scale)
		if err == nil {
			t.Errorf("%s: accepted, want error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
