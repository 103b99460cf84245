// Package phase slices a compiled workload's user-instruction stream into
// fixed-length intervals, fingerprints each interval, clusters the
// fingerprints into phases, and picks one representative interval per
// phase with the weight of the instructions it stands for — the planning
// half of representative-interval simulation (SimPoint-style sampling
// grafted onto the paper's trap-driven simulator).
//
// Everything here is offline: the analysis walks the pre-compiled op tree
// (workload.PlannedOps), chunk by chunk, without booting a kernel,
// approximating the kernel's round-robin interleave with a fixed
// 64-instruction quantum.
// Interval *boundaries* need no approximation — they are positions on the
// retired-user-instruction axis, which the replayer locates exactly with
// kernel.RunUntilUser. Only the per-interval feature vectors are
// approximate, and they are used solely to decide which intervals look
// alike; simulation results always come from replaying real intervals on
// the real kernel.
//
// The analysis is deterministic: a fixed (spec, seed, Config) always
// produces the same Plan. Clustering uses seeded k-means with
// lowest-index tie-breaking; no map iteration order leaks into the
// result.
package phase

import (
	"fmt"
	"sort"

	"tapeworm/internal/kernel"
	"tapeworm/internal/mem"
	"tapeworm/internal/rng"
	"tapeworm/internal/stackdist"
	"tapeworm/internal/trace"
	"tapeworm/internal/workload"
)

// Config shapes the analysis.
type Config struct {
	// Intervals is how many intervals to cut the stream into; the
	// interval length is the stream's user-instruction total divided by
	// this, rounded up.
	Intervals int
	// K is the number of phases (clusters) to detect. Clamped to the
	// interval count when the stream is short.
	K int
	// Seed drives k-means initialization. Folding the workload seed in is
	// the caller's choice; the default experiment path uses the run seed
	// so the whole pipeline stays a pure function of the run identity.
	Seed uint64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Intervals <= 0 {
		return fmt.Errorf("phase: interval count %d must be positive", c.Intervals)
	}
	if c.K <= 0 {
		return fmt.Errorf("phase: phase count %d must be positive", c.K)
	}
	if c.K > c.Intervals {
		return fmt.Errorf("phase: %d phases cannot exceed %d intervals", c.K, c.Intervals)
	}
	return nil
}

// Interval is one fixed-length slice of the user-instruction stream:
// [Start, End) on the retired-user-instruction axis. The final interval
// may be short.
type Interval struct {
	Index      int
	Start, End uint64
}

// Len returns the interval's user-instruction mass.
func (iv Interval) Len() uint64 { return iv.End - iv.Start }

// Representative is the interval chosen to stand for one phase, with the
// total mass of the intervals it represents.
type Representative struct {
	Interval
	Cluster int
	// Mass is the summed user-instruction length of every interval in the
	// cluster; Mass/Plan.TotalUser is the extrapolation weight.
	Mass uint64
}

// Plan is the output of Analyze: which intervals exist, which phase each
// belongs to, and the representative to replay per phase.
type Plan struct {
	TotalUser   uint64
	IntervalLen uint64
	// Assign maps interval index to cluster.
	Assign []int
	// Reps holds one representative per cluster, ordered by ascending
	// interval index (replay order).
	Reps []Representative
}

// NumIntervals returns how many intervals the stream was cut into.
func (p Plan) NumIntervals() int { return len(p.Assign) }

// Weight returns rep's extrapolation weight in [0, 1].
func (p Plan) Weight(rep Representative) float64 {
	if p.TotalUser == 0 {
		return 0
	}
	return float64(rep.Mass) / float64(p.TotalUser)
}

// --- Feature extraction ---

// maxSampledRefs bounds how many references per interval feed the
// reuse-distance simulator and the footprint map. A few thousand strided
// samples fingerprint an interval as well as the full stream does for
// clustering purposes, and keep analysis an order of magnitude cheaper
// than replaying the stream.
const maxSampledRefs = 4 << 10

// featurePageShift is the page granularity of the footprint feature. It
// matches the DECstation's 4 KB pages but is only a similarity signal,
// not an architectural parameter.
const featurePageShift = 12

// sdWays are the associativities whose windowed miss ratios enter the
// feature vector.
var sdWays = [...]int{1, 2, 4, 8, 16, 32}

var sdConfig = stackdist.Config{LineSize: 16, NumSets: 16, MaxTrackedDepth: 32}

// features accumulates one interval's fingerprint while the interleaver
// streams ops through it.
type features struct {
	instr    uint64 // user instructions (OpRun mass)
	loads    uint64
	stores   uint64
	syscalls uint64
	forks    uint64
	switches uint64 // scheduling turns observed in the interval

	pages map[uint32]struct{}
}

func newFeatures() *features {
	return &features{pages: make(map[uint32]struct{})}
}

func (f *features) page(va mem.VAddr) {
	f.pages[uint32(va>>featurePageShift)] = struct{}{}
}

func (f *features) reset() {
	f.instr, f.loads, f.stores, f.syscalls, f.forks, f.switches = 0, 0, 0, 0, 0, 0
	for p := range f.pages {
		delete(f.pages, p)
	}
}

// vector flattens the accumulated counts plus the interval's windowed
// reuse-distance profile into the clustering feature vector.
func (f *features) vector(w stackdist.WindowStats) []float64 {
	n := float64(f.instr)
	if n == 0 {
		n = 1
	}
	v := make([]float64, 0, 6+len(sdWays))
	v = append(v,
		float64(f.loads)/n,
		float64(f.stores)/n,
		float64(f.syscalls)/n*1e3, // rare events, rescaled to comparable range
		float64(f.forks)/n*1e3,
		float64(f.switches)/n*1e3,
		float64(len(f.pages))/n*1e3, // pages per kilo-instruction
	)
	for _, ways := range sdWays {
		v = append(v, w.MissRatioAt(ways))
	}
	return v
}

// --- Offline interleaver ---

// quantum mirrors the kernel's userRunCap: how many user instructions one
// task advances before the interleaver rotates to the next.
const quantum = 64

// walker is one live task's position in the op tree: the chunk it is
// walking, the index of the next chunk, and the op index in the chunk.
type walker struct {
	node  workload.OpTree
	ops   []kernel.CompiledOp
	chunk int
	pos   int
}

// op returns the walker's next op, moving on to the next chunk at the end
// of one, or nil past the end of the stream.
func (w *walker) op() *kernel.CompiledOp {
	for w.pos == len(w.ops) {
		chunks := w.node.Chunks()
		if w.chunk == len(chunks) {
			return nil
		}
		w.ops, w.pos = chunks[w.chunk], 0
		w.chunk++
	}
	return &w.ops[w.pos]
}

// interleave streams the merged user-instruction stream through per-
// interval feature extraction. Returns the total user-instruction count,
// the per-interval fingerprints and window snapshots.
func interleave(root workload.OpTree, intervalLen uint64) (total uint64, vecs [][]float64) {
	sd := stackdist.MustNew(sdConfig)
	f := newFeatures()
	tasks := []*walker{{node: root}}
	cur := 0

	var u uint64       // retired user instructions
	var refIdx uint64  // reference index, for sampling
	var sampled uint64 // references sampled this interval
	var boundary = intervalLen

	stride := uint64(1)
	// The stride keeps per-interval sampling under maxSampledRefs even
	// for long intervals; short intervals sample everything.
	if intervalLen > maxSampledRefs {
		stride = (intervalLen + maxSampledRefs - 1) / maxSampledRefs
	}

	flush := func() {
		vecs = append(vecs, f.vector(sd.Window()))
		sd.ResetWindow()
		f.reset()
		sampled = 0
		boundary += intervalLen
	}
	sample := func(va mem.VAddr, kind mem.RefKind) {
		if refIdx%stride == 0 && sampled < maxSampledRefs {
			sd.Process(trace.Entry{VA: va, Kind: kind})
			f.page(va)
			sampled++
		}
		refIdx++
	}

	for len(tasks) > 0 {
		if cur >= len(tasks) {
			cur = 0
		}
		w := tasks[cur]
		f.switches++
		var ran uint64
	turn:
		for ran < quantum {
			op := w.op()
			if op == nil {
				break // sticky exit
			}
			switch op.Kind {
			case kernel.OpRun:
				n := uint64(op.N)
				f.instr += n
				// Sample instruction fetches (and their pages) at the
				// stride without walking every instruction; the footprint
				// feature counts sampled pages, a consistent relative
				// signal at a fixed stride.
				first := (refIdx + stride - 1) / stride * stride
				for idx := first; idx < refIdx+n; idx += stride {
					if sampled >= maxSampledRefs {
						break
					}
					va := op.VA + mem.VAddr(mem.WordBytes)*mem.VAddr(idx-refIdx)
					sd.Process(trace.Entry{VA: va, Kind: mem.IFetch})
					f.page(va)
					sampled++
				}
				refIdx += n
				u += n
				ran += n
				w.pos++
				for u >= boundary {
					flush()
				}
			case kernel.OpData:
				if op.Ref == mem.Store {
					f.stores++
				} else {
					f.loads++
				}
				sample(op.VA, op.Ref)
				w.pos++
			case kernel.OpSyscall:
				f.syscalls++
				w.pos++
				break turn // the kernel reschedules around service time
			case kernel.OpFork:
				f.forks++
				tasks = append(tasks, &walker{node: w.node.Child(int(op.Arg()))})
				w.pos++
			default: // OpExit
				break turn
			}
		}
		if op := w.op(); op == nil || op.Kind == kernel.OpExit {
			tasks = append(tasks[:cur], tasks[cur+1:]...)
			continue // next task now sits at cur
		}
		cur++
	}
	// Flush the final short interval (or the only interval of a stream
	// shorter than one interval length).
	if u > uint64(len(vecs))*intervalLen {
		flush()
	}
	return u, vecs
}

// --- Analysis ---

// totalUser sums the user-instruction mass (OpRun lengths) of the whole
// fork tree without streaming it.
func totalUser(t workload.OpTree) uint64 {
	var sum uint64
	for _, ops := range t.Chunks() {
		for _, op := range ops {
			if op.Kind == kernel.OpRun {
				sum += uint64(op.N)
			}
		}
	}
	for i := 0; i < t.NumChildren(); i++ {
		sum += totalUser(t.Child(i))
	}
	return sum
}

// Analyze cuts the compiled stream of (spec, seed) into cfg.Intervals
// intervals, clusters their fingerprints into at most K phases and
// returns the replay plan. Streams beyond the compile budget return
// workload.ErrStreamTooLarge at once, decided from the spec before any
// op is generated — such runs cannot use interval replay (their
// checkpoints carry no resumable cursors either).
func Analyze(spec workload.Spec, seed uint64, cfg Config) (Plan, error) {
	if err := cfg.Validate(); err != nil {
		return Plan{}, err
	}
	root, err := workload.PlannedOps(spec, seed)
	if err != nil {
		return Plan{}, err
	}
	streamTotal := totalUser(root)
	if streamTotal == 0 {
		return Plan{}, fmt.Errorf("phase: %s/seed %#x has an empty user stream", spec.Name, seed)
	}
	intervalLen := (streamTotal + uint64(cfg.Intervals) - 1) / uint64(cfg.Intervals)
	total, vecs := interleave(root, intervalLen)
	if total != streamTotal {
		return Plan{}, fmt.Errorf("phase: interleave of %s/seed %#x covered %d of %d user instructions",
			spec.Name, seed, total, streamTotal)
	}
	n := len(vecs)

	k := cfg.K
	if k > n {
		k = n
	}
	norm := normalize(vecs)
	assign, centers := kmeans(norm, k, cfg.Seed)

	plan := Plan{TotalUser: total, IntervalLen: intervalLen, Assign: assign}
	interval := func(i int) Interval {
		start := uint64(i) * intervalLen
		end := start + intervalLen
		if end > total {
			end = total
		}
		return Interval{Index: i, Start: start, End: end}
	}
	for c := 0; c < k; c++ {
		rep, mass := -1, uint64(0)
		best := 0.0
		for i, a := range assign {
			if a != c {
				continue
			}
			mass += interval(i).Len()
			d := dist2(norm[i], centers[c])
			if rep < 0 || d < best {
				rep, best = i, d
			}
		}
		if rep < 0 {
			continue // k-means left the cluster empty; its mass is elsewhere
		}
		plan.Reps = append(plan.Reps, Representative{
			Interval: interval(rep),
			Cluster:  c,
			Mass:     mass,
		})
	}
	sort.Slice(plan.Reps, func(i, j int) bool { return plan.Reps[i].Index < plan.Reps[j].Index })
	return plan, nil
}

// normalize standardizes each feature dimension to zero mean and unit
// variance across the intervals, so no single raw scale dominates the
// Euclidean metric.
func normalize(vecs [][]float64) [][]float64 {
	if len(vecs) == 0 {
		return nil
	}
	dim := len(vecs[0])
	mean := make([]float64, dim)
	for _, v := range vecs {
		for d, x := range v {
			mean[d] += x
		}
	}
	for d := range mean {
		mean[d] /= float64(len(vecs))
	}
	std := make([]float64, dim)
	for _, v := range vecs {
		for d, x := range v {
			dx := x - mean[d]
			std[d] += dx * dx
		}
	}
	out := make([][]float64, len(vecs))
	for d := range std {
		std[d] = sqrt(std[d] / float64(len(vecs)))
		if std[d] == 0 {
			std[d] = 1 // constant dimension: contributes nothing either way
		}
	}
	for i, v := range vecs {
		nv := make([]float64, dim)
		for d, x := range v {
			nv[d] = (x - mean[d]) / std[d]
		}
		out[i] = nv
	}
	return out
}

// kmeans clusters vecs into k groups with seeded k-means++ initialization
// and lowest-index tie-breaking. Deterministic for a fixed (vecs, k,
// seed).
func kmeans(vecs [][]float64, k int, seed uint64) (assign []int, centers [][]float64) {
	n := len(vecs)
	r := rng.New(seed)

	// k-means++ seeding: first center uniform, then proportional to
	// squared distance from the nearest chosen center.
	centers = make([][]float64, 0, k)
	centers = append(centers, clone(vecs[r.Intn(n)]))
	d2 := make([]float64, n)
	for len(centers) < k {
		var sum float64
		for i, v := range vecs {
			d2[i] = dist2(v, centers[0])
			for _, c := range centers[1:] {
				if d := dist2(v, c); d < d2[i] {
					d2[i] = d
				}
			}
			sum += d2[i]
		}
		if sum == 0 {
			// All points coincide with a center; any pick is equivalent.
			centers = append(centers, clone(vecs[r.Intn(n)]))
			continue
		}
		target := r.Float64() * sum
		pick := n - 1
		for i, d := range d2 {
			target -= d
			if target <= 0 {
				pick = i
				break
			}
		}
		centers = append(centers, clone(vecs[pick]))
	}

	assign = make([]int, n)
	for iter := 0; iter < 100; iter++ {
		changed := false
		for i, v := range vecs {
			best, bd := 0, dist2(v, centers[0])
			for c := 1; c < len(centers); c++ {
				if d := dist2(v, centers[c]); d < bd {
					best, bd = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		dim := len(vecs[0])
		counts := make([]int, len(centers))
		next := make([][]float64, len(centers))
		for c := range next {
			next[c] = make([]float64, dim)
		}
		for i, v := range vecs {
			counts[assign[i]]++
			for d, x := range v {
				next[assign[i]][d] += x
			}
		}
		for c := range next {
			if counts[c] == 0 {
				// Empty cluster: reseat on the point farthest from its
				// center (lowest index on ties).
				far, fd := 0, -1.0
				for i, v := range vecs {
					if d := dist2(v, centers[assign[i]]); d > fd {
						far, fd = i, d
					}
				}
				copy(next[c], vecs[far])
				continue
			}
			for d := range next[c] {
				next[c][d] /= float64(counts[c])
			}
		}
		centers = next
	}
	return assign, centers
}

func clone(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

func dist2(a, b []float64) float64 {
	var s float64
	for d := range a {
		dx := a[d] - b[d]
		s += dx * dx
	}
	return s
}

// sqrt avoids importing math for one call (matches the rng package's
// convention of self-contained numerics).
func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	g := x
	for i := 0; i < 40; i++ {
		g = 0.5 * (g + x/g)
	}
	return g
}
