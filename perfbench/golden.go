package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// digest is the short content hash recorded per operation.
func digest(vals ...any) string {
	sum := sha256.Sum256([]byte(fmt.Sprint(vals...)))
	return hex.EncodeToString(sum[:8])
}

// goldenFile holds, per workload and simulation seed, the digest of every
// operation's simulated results, plus the exhaustive accuracy reference
// of the sampled sweep.
type goldenFile struct {
	Digests   map[string]map[string]map[string]string `json:"digests"`
	Reference map[string]map[string]map[string]string `json:"reference,omitempty"`
}

func loadGolden(path string) (*goldenFile, error) {
	g := &goldenFile{}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading golden digests: %w", err)
	}
	if err := json.Unmarshal(data, g); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return g, nil
}

func (g *goldenFile) forSeed(workload string, seed uint64) (digests, reference map[string]string) {
	key := strconv.FormatUint(seed, 10)
	return g.Digests[workload][key], g.Reference[workload][key]
}

// recordGolden runs one iteration of w per pool seed and stores the
// digests it produces (and, for the sampled sweep, the exhaustive
// reference), replacing w's entries in the golden file.
func recordGolden(w *scenario, path string) error {
	g, err := loadGolden(path)
	if err != nil {
		if _, statErr := os.Stat(path); statErr == nil {
			return err
		}
		g = &goldenFile{}
	}
	if g.Digests == nil {
		g.Digests = map[string]map[string]map[string]string{}
	}
	if g.Reference == nil {
		g.Reference = map[string]map[string]map[string]string{}
	}
	g.Digests[w.name] = map[string]map[string]string{}
	delete(g.Reference, w.name)
	for _, seed := range seedPool {
		key := strconv.FormatUint(seed, 10)
		b := &bench{w: w, seed: seed}
		if w.name == "sweep-sampled" {
			ref, err := exhaustiveReference(b)
			if err != nil {
				return err
			}
			if g.Reference[w.name] == nil {
				g.Reference[w.name] = map[string]map[string]string{}
			}
			g.Reference[w.name][key] = ref
			b.reference = ref
		}
		if _, err := b.run(); err != nil {
			return err
		}
		if b.failed > 0 {
			return fmt.Errorf("%s seed %d: %d operations failed while recording: %v", w.name, seed, b.failed, b.failures)
		}
		g.Digests[w.name][key] = b.got
		fmt.Fprintf(os.Stderr, "recorded %s seed %d: %d operations\n", w.name, seed, len(b.got))
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
