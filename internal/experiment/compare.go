package experiment

import (
	"fmt"
	"strconv"
	"strings"

	"tapeworm/internal/workload"
)

// TableError measures how far a representative-interval table strays from
// its exhaustive counterpart: the maximum relative error over numeric
// cell pairs whose exhaustive value has magnitude at least minMagnitude.
// Cells that do not parse as numbers (workload names, annotations) must
// match exactly; a shape or text mismatch is an error, not a large
// distance — the gate distinguishes "approximate numbers" from "different
// table".
//
// The magnitude floor exists because relative error on tiny counts is
// statistically meaningless: a representative that extrapolates 3 misses
// to 4 is not a 33% modeling failure. TestIntervalReplayErrorBound gates
// with a floor of 100 (counts below the floor still render; they just do
// not drive the bound).
func TableError(exhaustive, sampled *Table, minMagnitude float64) (float64, error) {
	if exhaustive.ID != sampled.ID {
		return 0, fmt.Errorf("experiment: comparing different tables %q and %q", exhaustive.ID, sampled.ID)
	}
	if len(exhaustive.Rows) != len(sampled.Rows) {
		return 0, fmt.Errorf("experiment: %s row count %d vs %d", exhaustive.ID, len(exhaustive.Rows), len(sampled.Rows))
	}
	maxRel := 0.0
	for r, erow := range exhaustive.Rows {
		srow := sampled.Rows[r]
		if len(erow) != len(srow) {
			return 0, fmt.Errorf("experiment: %s row %d width %d vs %d", exhaustive.ID, r, len(erow), len(srow))
		}
		for c, ecell := range erow {
			scell := srow[c]
			ev, eok := parseCell(ecell)
			sv, sok := parseCell(scell)
			if !eok || !sok {
				if ecell != scell {
					return 0, fmt.Errorf("experiment: %s row %d col %d: non-numeric cells differ (%q vs %q)",
						exhaustive.ID, r, c, ecell, scell)
				}
				continue
			}
			mag := ev
			if mag < 0 {
				mag = -mag
			}
			if mag < minMagnitude {
				continue
			}
			rel := (sv - ev) / ev
			if rel < 0 {
				rel = -rel
			}
			if rel > maxRel {
				maxRel = rel
			}
		}
	}
	return maxRel, nil
}

// parseCell extracts the numeric value of a rendered table cell:
// thousands separators are dropped and a trailing unit (%, x, s, ...)
// ignored. A cell with no leading numeric prefix is not a number.
func parseCell(s string) (float64, bool) {
	s = strings.ReplaceAll(strings.TrimSpace(s), ",", "")
	if s == "" {
		return 0, false
	}
	end := 0
	seenDigit := false
	for end < len(s) {
		ch := s[end]
		if ch >= '0' && ch <= '9' {
			seenDigit = true
			end++
			continue
		}
		if (ch == '-' || ch == '+') && end == 0 {
			end++
			continue
		}
		if ch == '.' || ch == 'e' || ch == 'E' {
			end++
			continue
		}
		break
	}
	if !seenDigit {
		return 0, false
	}
	v, err := strconv.ParseFloat(strings.TrimRight(s[:end], "eE.+-"), 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// PhaseNote describes, for table footers, how the gang-eligible entries
// over specs were produced when interval replay is on: a reminder that
// interval-sampled numbers carry an error bound instead of byte-exactness.
// The options and the specs alone decide it, never what a run happened to
// execute. Telemetry turns interval replay off, and a stream beyond the
// compile budget has no image to checkpoint, so its groups fall back to
// exhaustive replay and are exact. A result served from the result cache
// is the one its group produced when simulated, so a warm run gets the
// cold run's note. Empty when interval replay is off.
//
//twvet:allow gate — pure formatter over already-validated options; no error channel and nothing here can panic on bad values
func PhaseNote(o Options, specs []workload.Spec) string {
	if o.PhaseIntervals <= 0 {
		return ""
	}
	geom := fmt.Sprintf("%d intervals, %d phases, %d-instruction warm-up",
		o.PhaseIntervals, o.PhaseK, o.PhaseWarmup)
	var exact []string
	for _, spec := range specs {
		if !workload.Compiles(spec) {
			exact = append(exact, spec.Name)
		}
	}
	switch {
	case o.Telemetry != nil || o.reference || len(exact) == len(specs):
		return fmt.Sprintf("representative-interval sampling requested (%s) but no group is extrapolated: simulated entries fall back to exhaustive replay and are exact", geom)
	case len(exact) > 0:
		return fmt.Sprintf("representative-interval sampling: %s; gang-eligible entries are extrapolated (error-bound-gated, not exact) except those of %s, beyond the compile budget, which are exact",
			geom, strings.Join(exact, ", "))
	}
	return fmt.Sprintf("representative-interval sampling: %s; gang-eligible entries are extrapolated (error-bound-gated, not exact)", geom)
}
