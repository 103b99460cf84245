package experiment

// Content-addressed result caching. Every run's runResult is a pure
// function of its execution identity — TestDifferential's reference rows
// check it — so results are cached by a canonical digest of that identity
// and served without simulating.
// Integration happens at the execution-group level in runAll: a gang
// group simulates only the members whose digests miss (a partial gang,
// valid because each member's statistics are independent of gang
// composition), completes their claims, and assembles the table from
// mixed cached+fresh members. Identical concurrent groups deduplicate
// single-flight inside the store.

import (
	"bytes"
	"sort"

	"tapeworm/internal/core"
	"tapeworm/internal/resultcache"
)

// maxCachedResults bounds the in-process result tier. Results are a few
// hundred bytes each (a runResult), so the bound is generous: a full
// twbench suite plus a large twsweep grid fit without eviction.
const maxCachedResults = 4096

// resultStore is the process-wide result cache: one instance, shared by
// every experiment in the process, safe for concurrent groups.
var resultStore = resultcache.New[runResult](maxCachedResults)

// ResultCacheStats reports process-wide result cache activity (bench
// JSON's result_cache section).
func ResultCacheStats() resultcache.Stats { return resultStore.Stats() }

// ResetResultCache drops the in-process tier and zeroes the counters, so
// benchmarks and tests can measure a cold start. Persisted directories
// are untouched.
func ResetResultCache() { resultStore.Reset() }

// resultDigest canonically digests a run's full execution identity: the
// whole runConfig but its telemetry handle, and the phase geometry, since
// interval replay's extrapolated results are not byte-identical to an
// exhaustive run's. The runConfig must already be normalized (the
// reference bit folded in from Options, as runAll's workers do), so the
// digest never depends on where it was spelled. The reference bit does
// not change results but is digested anyway: the cache's contract is
// "same digest, same bytes", and keying the reference executor apart
// means a cache row can never serve one path's result to the other, so a
// differential run simulates fresh instead of trusting the equivalence it
// is checking.
func resultDigest(o Options, rc runConfig) resultcache.Digest {
	if rc.frames <= 0 {
		rc.frames = 8192 // run()'s default for unset frames
	}
	return resultcache.DigestOf("experiment.run/v6", core.PhysicsVersion, rc,
		o.PhaseIntervals, o.PhaseK, o.PhaseWarmup)
}

// runGroupCached executes one runAll group through the result cache:
// cached members are served without simulating; missing members run as a
// partial group (a gang of just the misses, or the solo run) and publish
// their results. Per-member results are identical to the uncached path
// because gang members' statistics are independent of gang composition —
// the same invariant that makes the reference rows of TestDifferential
// hold.
//
// Claims are accumulated in a slice and released by the deferred sweep,
// so every claim has exactly one Release on every path, errors included:
// a failed group leaves no claim in flight (ResultCacheStats().InFlight).
func runGroupCached(o Options, rcs []runConfig) ([]runResult, error) {
	n := len(rcs)
	out := make([]runResult, n)
	claims := make([]*resultcache.Claim[runResult], n)
	dupOf := make([]int, n)
	hit := make([]bool, n)
	digests := make([]resultcache.Digest, n)
	for i, rc := range rcs {
		digests[i] = resultDigest(o, rc)
		dupOf[i] = -1
	}
	defer func() {
		for _, c := range claims {
			if c != nil {
				c.Release()
			}
		}
	}()

	// Acquire in global digest order. Two concurrent groups can share
	// digests only across processes or across concurrent experiment
	// suites; ordering the acquisitions by digest keeps the wait graph
	// acyclic so single-flight joins can never deadlock.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return bytes.Compare(digests[order[a]][:], digests[order[b]][:]) < 0
	})
	firstByDigest := make(map[resultcache.Digest]int, n)
	for _, i := range order {
		if j, ok := firstByDigest[digests[i]]; ok {
			dupOf[i] = j // identical member in this group: share one claim
			continue
		}
		firstByDigest[digests[i]] = i
		claim, err := resultStore.Acquire(digests[i], o.ResultCacheDir)
		if err != nil {
			return nil, err
		}
		claims[i] = claim
		if v, ok := claim.Cached(); ok {
			out[i] = v
			hit[i] = true
		}
	}

	var missing []int
	for i := range rcs {
		if claims[i] != nil && !hit[i] {
			missing = append(missing, i)
		}
	}
	if len(missing) > 0 {
		sub := make([]runConfig, len(missing))
		for mi, i := range missing {
			sub[mi] = rcs[i]
		}
		var rs []runResult
		var err error
		if !sub[0].gang {
			// Riders follow the members, so a first miss that is not
			// gang-opted means every member hit (or the group is a solo
			// singleton): only uninstrumented runs are left, and they run
			// solo rather than boot a gang for nobody.
			rs = make([]runResult, len(sub))
			for mi := range sub {
				if rs[mi], err = run(sub[mi]); err != nil {
					break
				}
			}
		} else {
			rs, err = execGang(o, sub)
		}
		if err != nil {
			return nil, err
		}
		for mi, i := range missing {
			out[i] = rs[mi]
			if err := claims[i].Complete(rs[mi]); err != nil {
				return nil, err
			}
		}
	}
	for i := range rcs {
		if dupOf[i] >= 0 {
			out[i] = out[dupOf[i]]
		}
	}
	return out, nil
}
