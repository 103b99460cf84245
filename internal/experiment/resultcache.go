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
	"encoding/gob"
	"sort"

	"tapeworm/internal/core"
	"tapeworm/internal/kernel"
	"tapeworm/internal/monster"
	"tapeworm/internal/resultcache"
)

// maxCachedResults bounds the in-process result tier. Results are a few
// hundred bytes each (a runResult), so the bound is generous: a full
// twbench suite plus a large twsweep grid fit without eviction.
const maxCachedResults = 4096

// resultStore is the process-wide result cache: one instance, shared by
// every experiment in the process, safe for concurrent groups.
var resultStore = resultcache.New(maxCachedResults, encodeResult, decodeResult)

// ResultCacheStats reports process-wide result cache activity (bench
// JSON's result_cache section).
func ResultCacheStats() resultcache.Stats { return resultStore.Stats() }

// ResetResultCache drops the in-process tier and zeroes the counters, so
// benchmarks and tests can measure a cold start. Persisted directories
// are untouched.
func ResetResultCache() { resultStore.Reset() }

// resultDigest canonically digests a run's full execution identity. The
// runConfig must already be normalized (the reference bit folded in from
// Options, as runAll's workers do), so the digest never depends on where
// it was spelled. The reference bit does not change results but is hashed
// anyway: the cache's contract is "same digest, same bytes", and keying
// the reference executor apart means a cache row can never serve one
// path's result to the other, so a differential run simulates fresh
// instead of trusting the equivalence it is checking.
//
//twvet:digest runConfig
func resultDigest(o Options, rc runConfig) resultcache.Digest {
	h := resultcache.NewHasher()
	h.WriteString("experiment.run/v5")
	h.WriteUint64(core.PhysicsVersion)
	rc.spec.HashInto(h)
	h.WriteUint64(rc.seed)
	h.WriteUint64(rc.pageSeed)
	frames := rc.frames
	if frames <= 0 {
		frames = 8192 // run()'s default for unset frames
	}
	h.WriteInt(frames)
	h.WriteBool(rc.simUser)
	h.WriteBool(rc.simServers)
	h.WriteBool(rc.simKernel)
	h.WriteBool(rc.reference)
	h.WriteBool(rc.gang)
	// Interval replay produces extrapolated (not byte-identical) results,
	// so the phase geometry is part of the execution identity.
	h.WriteInt(o.PhaseIntervals)
	h.WriteInt(o.PhaseK)
	h.WriteInt(o.PhaseWarmup)
	h.WriteBool(rc.tw != nil)
	if rc.tw != nil {
		rc.tw.HashInto(h)
	}
	h.WriteBool(rc.trace != nil)
	if rc.trace != nil {
		rc.trace.HashInto(h)
	}
	return h.Sum()
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
	claims := make([]*resultcache.Claim, n)
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
			out[i] = v.(runResult)
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

// resultWire is the gob image of a runResult for the persistent tier
// (gob requires exported fields; runResult keeps its fields private).
type resultWire struct {
	Snap     monster.Snapshot
	Seconds  float64
	Comp     [kernel.NumComponents]uint64
	BSDInstr uint64
	XInstr   uint64
	Tasks    int

	TwStats  core.Stats
	TwByComp [kernel.NumComponents]uint64
	TwEst    float64
	Mech     string

	C2kHits, C2kMisses uint64
	PixieRefs          uint64
}

//twvet:digest runResult
//twvet:digest resultWire
func encodeResult(v any) ([]byte, error) {
	r := v.(runResult)
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(resultWire{
		Snap: r.snap, Seconds: r.seconds, Comp: r.comp,
		BSDInstr: r.bsdInstr, XInstr: r.xInstr, Tasks: r.tasks,
		TwStats: r.twStats, TwByComp: r.twByComp,
		TwEst: r.twEst, Mech: r.mech, C2kHits: r.c2kHits, C2kMisses: r.c2kMisses,
		PixieRefs: r.pixieRefs,
	})
	return buf.Bytes(), err
}

//twvet:digest runResult
//twvet:digest resultWire
func decodeResult(b []byte) (any, error) {
	var w resultWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return nil, err
	}
	return runResult{
		snap: w.Snap, seconds: w.Seconds, comp: w.Comp,
		bsdInstr: w.BSDInstr, xInstr: w.XInstr, tasks: w.Tasks,
		twStats: w.TwStats, twByComp: w.TwByComp,
		twEst: w.TwEst, mech: w.Mech, c2kHits: w.C2kHits, c2kMisses: w.C2kMisses,
		pixieRefs: w.PixieRefs,
	}, nil
}
