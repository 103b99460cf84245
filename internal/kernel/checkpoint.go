package kernel

// Checkpointed boot images. Boot is the dominant fixed cost left per
// trial: the Fisher-Yates shuffle over every allocatable frame plus a few
// dozen walker constructions. A Checkpoint freezes the post-boot kernel —
// serialized task tree, frame-allocator tables, the random-stream and
// walker positions, and a copy-on-write image of physical memory — and
// Fork rebuilds a ready-to-run kernel from it without rebooting: the
// shuffled free list is copied, the dense trap tables are shared with the
// image until first write (mem/image.go), and every random stream resumes
// at its captured position, so a forked kernel is byte-for-byte
// indistinguishable from a fresh boot of the same configuration.
//
// Capture requires a quiesced kernel (nothing executed, no workload
// spawned): the checkpoint identity is then a pure function of
// (seed, pageSeed, machine geometry, server set), which is what lets the
// experiment layer share one image across every trial and gang member
// with that identity. CaptureAt (midrun.go) extends the same image with
// a run state — scheduler, clock, page tables, compiled-program cursors —
// so interval replay can fork a kernel back to an interval boundary;
// within a fork, core.Window still owns warm-up/measure selection.

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"tapeworm/internal/mach"
	"tapeworm/internal/mem"
	"tapeworm/internal/rng"
	"tapeworm/internal/textwalk"
)

// ErrCheckpointMismatch is wrapped by every Fork/LoadCheckpoint rejection
// of a checkpoint whose identity does not match the requested
// configuration (different seed, frame count, server set, ...).
var ErrCheckpointMismatch = errors.New("kernel: checkpoint does not match configuration")

// ErrCheckpointCorrupt is wrapped by ReadCheckpoint when a checkpoint
// file cannot be decoded at all — truncation, garbage, a torn write. It
// is distinct from ErrCheckpointMismatch, which covers files that decode
// but describe a different identity.
var ErrCheckpointCorrupt = errors.New("kernel: checkpoint file corrupt")

// taskRecord serializes one entry of the boot-time task tree.
type taskRecord struct {
	Name     string
	Server   bool
	Simulate bool
	Inherit  bool
}

// serverState serializes one server's mutable state: per-service walker
// positions and the data generator's stream and hot-region size.
type serverState struct {
	Walkers map[ServiceID]textwalk.State
	Data    rng.State
	DataHot uint32
}

// Checkpoint is an immutable post-boot kernel image. Any number of Forks
// may share it concurrently; it is never written after Capture.
type Checkpoint struct {
	mark string

	// Identity: the configuration facets that determine boot state. Fork
	// validates its Config against these; runtime-only knobs (telemetry,
	// fast path, host cache geometry, quantum, data-reference rates) may
	// differ between capture and fork.
	seed           uint64
	pageSeed       uint64
	frames         int
	pageSize       int
	tapewormFrames int
	withXServer    bool
	withBSDServer  bool

	img *mem.Image

	// Frame allocator tables, post-shuffle: Fork copies these instead of
	// re-running Fisher-Yates over every allocatable frame.
	free     []uint32
	refcount []uint16

	rngKernel rng.State
	rngIntr   rng.State
	rngVM     rng.State
	walkers   map[string]textwalk.State
	kdataRNG  rng.State
	kdataHot  uint32

	tasks   []taskRecord
	servers map[ServerKind]serverState

	// run is the mid-run state captured by CaptureAt (midrun.go); nil for
	// post-boot checkpoints.
	run *runState

	// Walker-shape template, built once per checkpoint and shared by all
	// forks (see template). Not serialized; a decoded checkpoint rebuilds
	// it from the boot recipe on first Fork.
	tmplOnce sync.Once
	tmpl     *ckTemplate
}

// ckTemplate caches the immutable shapes every fork of a checkpoint
// shares: the kernel layout and one fully-constructed walker per label,
// from which Fork stamps out clones (textwalk.CloneWithState) instead of
// re-running construction — the walker builds and label-hash rng splits
// are the second-largest boot-only cost after the frame shuffle. Template
// walkers are never stepped; only their immutable shape is read.
type ckTemplate struct {
	layout  *kernelLayout
	kernelW map[string]*textwalk.Walker
	servers map[ServerKind]*server // template walkers + data-generator shape; task is nil
}

// template returns the checkpoint's shared shape template, building it on
// first use. Capture pre-seeds it from the source kernel (sharing its
// immutable regions); a checkpoint decoded from disk rebuilds it from the
// boot recipe, which is a pure function of the checkpoint identity.
func (cp *Checkpoint) template() *ckTemplate {
	cp.tmplOnce.Do(func() {
		tm := &ckTemplate{
			layout:  newKernelLayout(),
			kernelW: make(map[string]*textwalk.Walker),
			servers: make(map[ServerKind]*server),
		}
		params := textwalk.DefaultParams()
		params.CallProb = 0.05
		r := rng.New(cp.seed)
		mk := func(region textwalk.Region, label string) {
			tm.kernelW[label] = textwalk.MustNew(r, region, params, tm.layout.helpers)
		}
		mk(tm.layout.entry, "entry")
		mk(tm.layout.clock, "clock")
		mk(tm.layout.sched, "sched")
		mk(tm.layout.vmFault, "vm")
		mk(tm.layout.fork, "fork")
		mk(tm.layout.vmFault, "softvm")
		mk(tm.layout.sched, "softsched")
		for i := range serviceTable {
			mk(tm.layout.services[i], svcWalkerLabels[i])
		}
		if cp.withBSDServer {
			tm.servers[BSDServer] = newServer(BSDServer, nil, r)
		}
		if cp.withXServer {
			tm.servers[XServer] = newServer(XServer, nil, r)
		}
		cp.tmpl = tm
	})
	return cp.tmpl
}

// Mark returns the checkpoint's name ("post-boot" for Capture after Boot).
func (cp *Checkpoint) Mark() string { return cp.mark }

// Frames returns the physical frame count the checkpoint was captured at.
func (cp *Checkpoint) Frames() int { return cp.frames }

// Seeds returns the (seed, pageSeed) identity of the checkpoint.
func (cp *Checkpoint) Seeds() (seed, pageSeed uint64) { return cp.seed, cp.pageSeed }

// svcWalkerLabels holds the per-service walker labels, formatted once per
// process instead of once per fork.
var svcWalkerLabels = func() [numServices]string {
	var out [numServices]string
	for i := range out {
		out[i] = fmt.Sprintf("svc-%d", i)
	}
	return out
}()

// allWalkerLabels lists the kernel's walkers in Boot's construction
// order, computed once per process. Capture and Fork iterate the same
// list, so the label set is self-consistent by construction.
var allWalkerLabels = func() []string {
	labels := []string{"entry", "clock", "sched", "vm", "fork", "softvm", "softsched"}
	return append(labels, svcWalkerLabels[:]...)
}()

// kernelWalkerLabels returns the shared label list; callers only range
// over it.
func kernelWalkerLabels() []string { return allWalkerLabels }

// kernelWalkerByLabel maps a label to the kernel's walker, mirroring the
// assignments in Boot.
func (k *Kernel) kernelWalkerByLabel(label string) *textwalk.Walker {
	switch label {
	case "entry":
		return k.entryW
	case "clock":
		return k.clockW
	case "sched":
		return k.schedW
	case "vm":
		return k.vmW
	case "fork":
		return k.forkW
	case "softvm":
		return k.softVmW
	case "softsched":
		return k.softSchedW
	}
	var i int
	if _, err := fmt.Sscanf(label, "svc-%d", &i); err == nil && i >= 0 && i < int(numServices) {
		return k.svcW[i]
	}
	return nil
}

// Capture snapshots a quiesced kernel into a Checkpoint named mark. The
// kernel must not have executed anything or spawned workload tasks —
// Capture is for post-boot images; mid-run measurement windows are
// core.Window's job. The kernel remains fully usable afterwards and
// shares nothing with the returned checkpoint.
func Capture(k *Kernel, mark string) (*Checkpoint, error) {
	if k.m.Cycles() != 0 || k.m.Instructions() != 0 || k.userSpawned != 0 || len(k.runq) != 0 {
		return nil, fmt.Errorf("kernel: Capture(%q) of a non-quiesced kernel (%d cycles, %d instructions, %d user tasks)",
			mark, k.m.Cycles(), k.m.Instructions(), k.userSpawned)
	}
	return captureState(k, mark)
}

// captureState snapshots the boot-derived state shared by post-boot
// (Capture) and mid-run (CaptureAt) checkpoints: identity, memory image,
// frame allocator, rng streams, walker positions, task records, servers.
func captureState(k *Kernel, mark string) (*Checkpoint, error) {
	cp := &Checkpoint{
		mark:           mark,
		seed:           k.cfg.Seed,
		pageSeed:       k.cfg.PageSeed,
		frames:         k.cfg.Machine.Frames,
		pageSize:       k.cfg.Machine.PageSize,
		tapewormFrames: k.cfg.TapewormFrames,
		withXServer:    k.cfg.WithXServer,
		withBSDServer:  k.cfg.WithBSDServer,
		img:            k.m.CaptureImage(),
		free:           append([]uint32(nil), k.fa.free...),
		refcount:       append([]uint16(nil), k.fa.refcount...),
		rngKernel:      k.rngKernel.State(),
		rngIntr:        k.rngIntr.State(),
		rngVM:          k.rngVM.State(),
		walkers:        make(map[string]textwalk.State),
		kdataRNG:       k.kdata.r.State(),
		kdataHot:       k.kdata.hotSize,
		servers:        make(map[ServerKind]serverState),
	}
	for _, label := range kernelWalkerLabels() {
		cp.walkers[label] = k.kernelWalkerByLabel(label).State()
	}
	for _, t := range k.tasks {
		cp.tasks = append(cp.tasks, taskRecord{
			Name: t.Name, Server: t.Server, Simulate: t.Simulate, Inherit: t.Inherit,
		})
	}
	for _, kind := range []ServerKind{BSDServer, XServer} {
		s := k.servers[kind]
		if s == nil {
			continue
		}
		ss := serverState{
			Walkers: make(map[ServiceID]textwalk.State, len(s.walkers)),
			Data:    s.data.r.State(),
			DataHot: s.data.hotSize,
		}
		for id, w := range s.walkers {
			ss.Walkers[id] = w.State()
		}
		cp.servers[kind] = ss
	}
	return cp, nil
}

// validateFork checks cfg against the checkpoint's identity, wrapping
// ErrCheckpointMismatch so callers (and Options.Validate paths) can
// classify the failure.
func (cp *Checkpoint) validateFork(cfg Config) error {
	mismatch := func(what string, got, want any) error {
		return fmt.Errorf("%w: %s %v, checkpoint %q captured with %v",
			ErrCheckpointMismatch, what, got, cp.mark, want)
	}
	if cfg.Machine.Frames != cp.frames {
		return mismatch("frame count", cfg.Machine.Frames, cp.frames)
	}
	if cfg.Machine.PageSize != cp.pageSize {
		return mismatch("page size", cfg.Machine.PageSize, cp.pageSize)
	}
	if cfg.Seed != cp.seed {
		return mismatch("seed", cfg.Seed, cp.seed)
	}
	if cfg.PageSeed != cp.pageSeed {
		return mismatch("page seed", cfg.PageSeed, cp.pageSeed)
	}
	if cfg.TapewormFrames != cp.tapewormFrames {
		return mismatch("Tapeworm reserved frames", cfg.TapewormFrames, cp.tapewormFrames)
	}
	if cfg.WithXServer != cp.withXServer {
		return mismatch("X server", cfg.WithXServer, cp.withXServer)
	}
	if cfg.WithBSDServer != cp.withBSDServer {
		return mismatch("BSD server", cfg.WithBSDServer, cp.withBSDServer)
	}
	return nil
}

// ValidateConfig reports whether cfg could fork from this checkpoint,
// wrapping ErrCheckpointMismatch on any identity difference. Fork runs
// the same check; this is for callers that load checkpoints from disk
// and want to reject a stale or foreign file up front.
func (cp *Checkpoint) ValidateConfig(cfg Config) error { return cp.validateFork(cfg) }

// Fork builds a ready-to-run kernel from a checkpoint without rebooting.
// cfg must agree with the checkpoint on everything that shapes boot state
// (seeds, geometry, server set — see validateFork); runtime-only options
// such as Telemetry and Machine.NoFastPath are taken from cfg and may
// differ from the captured boot. The forked kernel shares the
// checkpoint's physical-memory image copy-on-write; nothing needs
// releasing when it is done.
func Fork(cp *Checkpoint, cfg Config) (*Kernel, error) {
	if err := cp.validateFork(cfg); err != nil {
		return nil, err
	}
	k := &Kernel{cfg: cfg, servers: make(map[ServerKind]*server)}
	var err error
	k.m, err = mach.NewFromImage(cfg.Machine, k, cp.img)
	if err != nil {
		return nil, err
	}
	k.m.SetTelemetry(cfg.Telemetry)
	tm := cp.template()
	// The layout is immutable after construction, so forks share the
	// template's instead of recomputing the region placement.
	k.layout = tm.layout
	k.fa = restoreFrameAllocator(cfg.Machine.Frames, cp.free, cp.refcount)

	k.rngKernel = rng.FromState(cp.rngKernel)
	k.rngIntr = rng.FromState(cp.rngIntr)
	k.rngVM = rng.FromState(cp.rngVM)
	for _, label := range kernelWalkerLabels() {
		if _, ok := cp.walkers[label]; !ok {
			return nil, fmt.Errorf("%w: missing kernel walker state %q", ErrCheckpointMismatch, label)
		}
	}
	// Walkers are clones of the template's shapes with their stream and
	// position restored from the checkpoint.
	mk := func(label string) *textwalk.Walker {
		return tm.kernelW[label].CloneWithState(cp.walkers[label])
	}
	k.entryW = mk("entry")
	k.clockW = mk("clock")
	k.schedW = mk("sched")
	k.vmW = mk("vm")
	k.forkW = mk("fork")
	k.softVmW = mk("softvm")
	k.softSchedW = mk("softsched")
	for i := range serviceTable {
		k.svcW[i] = mk(svcWalkerLabels[i])
	}
	k.kdata = newDataGen(rng.FromState(cp.kdataRNG), k.layout.data, cp.kdataHot, 0.35)

	// Rebuild the task tree from the serialized records; IDs are
	// positional, exactly as Boot and newTask assign them.
	for i, rec := range cp.tasks {
		t := &Task{
			ID:       mem.TaskID(i),
			Name:     rec.Name,
			Server:   rec.Server,
			Simulate: rec.Simulate,
			Inherit:  rec.Inherit,
			space:    newAddrSpace(cfg.Machine.PageSize),
		}
		k.tasks = append(k.tasks, t)
	}
	for _, kind := range []ServerKind{BSDServer, XServer} {
		ss, ok := cp.servers[kind]
		if !ok {
			continue
		}
		var task *Task
		name := "bsd-server"
		if kind == XServer {
			name = "x-server"
		}
		for _, t := range k.tasks {
			if t.Server && t.Name == name {
				task = t
				break
			}
		}
		if task == nil {
			return nil, fmt.Errorf("%w: server %q has state but no task record", ErrCheckpointMismatch, name)
		}
		// Same cloning trick as the kernel walkers: the template server
		// carries the immutable regions, the checkpoint every stream.
		ts := tm.servers[kind]
		if ts == nil {
			return nil, fmt.Errorf("%w: server %d has state but no template", ErrCheckpointMismatch, kind)
		}
		s := &server{
			kind:    kind,
			task:    task,
			walkers: make(map[ServiceID]*textwalk.Walker, len(ts.walkers)),
			data:    newDataGen(rng.FromState(ss.Data), ts.data.region, ss.DataHot, ts.data.storeP),
			dataP:   ts.dataP,
		}
		// Clone order cannot matter: each clone depends only on its own
		// template walker and checkpointed state.
		for id, w := range ts.walkers {
			st, ok := ss.Walkers[id]
			if !ok {
				return nil, fmt.Errorf("%w: missing walker state for server %d service %d", ErrCheckpointMismatch, kind, id)
			}
			s.walkers[id] = w.CloneWithState(st)
		}
		k.servers[kind] = s
	}
	return k, nil
}

// ReleaseCheckpoint does nothing: a forked kernel's arrays are plain
// allocations that the garbage collector reclaims. The method is kept
// only because the benchmark runner in perfbench/ still calls it.
func (k *Kernel) ReleaseCheckpoint() {}

// --- Persistence (-checkpoint-dir) ---

// checkpointWire is the gob representation of a Checkpoint. Maps are
// flattened to sorted slices so the encoded bytes are deterministic.
type checkpointWire struct {
	Version int
	Mark    string

	Seed           uint64
	PageSeed       uint64
	Frames         int
	PageSize       int
	TapewormFrames int
	WithXServer    bool
	WithBSDServer  bool

	Img      *mem.Image
	Free     []uint32
	Refcount []uint16

	RNGKernel rng.State
	RNGIntr   rng.State
	RNGVM     rng.State

	WalkerLabels []string
	WalkerStates []textwalk.State

	KdataRNG rng.State
	KdataHot uint32

	Tasks []taskRecord

	ServerKinds  []ServerKind
	ServerStates []serverWire

	// Run carries mid-run state for CaptureAt checkpoints; nil for
	// post-boot images. Gob omits nil pointers, so version 1 files
	// written before the field existed still decode (to a nil Run) and
	// old readers skip the field they don't know.
	Run *runState
}

type serverWire struct {
	Services []ServiceID
	Walkers  []textwalk.State
	Data     rng.State
	DataHot  uint32
}

// checkpointWireVersion guards the on-disk format; bump on any layout
// change so stale -checkpoint-dir files fail loudly instead of decoding
// into garbage.
const checkpointWireVersion = 1

// Encode writes the checkpoint to f with gob.
func (cp *Checkpoint) Encode(f io.Writer) error {
	w := checkpointWire{
		Version:        checkpointWireVersion,
		Mark:           cp.mark,
		Seed:           cp.seed,
		PageSeed:       cp.pageSeed,
		Frames:         cp.frames,
		PageSize:       cp.pageSize,
		TapewormFrames: cp.tapewormFrames,
		WithXServer:    cp.withXServer,
		WithBSDServer:  cp.withBSDServer,
		Img:            cp.img,
		Free:           cp.free,
		Refcount:       cp.refcount,
		RNGKernel:      cp.rngKernel,
		RNGIntr:        cp.rngIntr,
		RNGVM:          cp.rngVM,
		KdataRNG:       cp.kdataRNG,
		KdataHot:       cp.kdataHot,
		Tasks:          cp.tasks,
		Run:            cp.run,
	}
	for _, label := range sortedKeys(cp.walkers) {
		w.WalkerLabels = append(w.WalkerLabels, label)
		w.WalkerStates = append(w.WalkerStates, cp.walkers[label])
	}
	for _, kind := range []ServerKind{BSDServer, XServer} {
		ss, ok := cp.servers[kind]
		if !ok {
			continue
		}
		sw := serverWire{Data: ss.Data, DataHot: ss.DataHot}
		ids := make([]int, 0, len(ss.Walkers))
		for id := range ss.Walkers {
			ids = append(ids, int(id))
		}
		sort.Ints(ids)
		for _, id := range ids {
			sw.Services = append(sw.Services, ServiceID(id))
			sw.Walkers = append(sw.Walkers, ss.Walkers[ServiceID(id)])
		}
		w.ServerKinds = append(w.ServerKinds, kind)
		w.ServerStates = append(w.ServerStates, sw)
	}
	return gob.NewEncoder(f).Encode(w)
}

// ReadCheckpoint decodes a checkpoint written by Encode.
func ReadCheckpoint(f io.Reader) (*Checkpoint, error) {
	var w checkpointWire
	if err := gob.NewDecoder(f).Decode(&w); err != nil {
		return nil, fmt.Errorf("%w: decoding: %v", ErrCheckpointCorrupt, err)
	}
	if w.Version != checkpointWireVersion {
		return nil, fmt.Errorf("%w: checkpoint file version %d, want %d",
			ErrCheckpointMismatch, w.Version, checkpointWireVersion)
	}
	if w.Img == nil {
		return nil, fmt.Errorf("%w: checkpoint file has no memory image", ErrCheckpointMismatch)
	}
	if w.Img.Frames() != w.Frames || w.Img.PageSize() != w.PageSize {
		return nil, fmt.Errorf("%w: image geometry %d×%d does not match header %d×%d",
			ErrCheckpointMismatch, w.Img.Frames(), w.Img.PageSize(), w.Frames, w.PageSize)
	}
	if err := checkFrameTables(w.Frames, w.Free, w.Refcount); err != nil {
		return nil, fmt.Errorf("%w: frame tables: %v", ErrCheckpointCorrupt, err)
	}
	// Data generators draw offsets uniformly from their hot region; Boot
	// never makes one empty, and an empty one cannot be drawn from.
	if w.KdataHot == 0 {
		return nil, fmt.Errorf("%w: kernel data generator has an empty hot region", ErrCheckpointCorrupt)
	}
	for i, sw := range w.ServerStates {
		if sw.DataHot == 0 {
			return nil, fmt.Errorf("%w: server %d data generator has an empty hot region", ErrCheckpointCorrupt, i)
		}
	}
	if w.Run != nil {
		if err := w.Run.check(len(w.Tasks), w.Refcount); err != nil {
			return nil, fmt.Errorf("%w: run state: %v", ErrCheckpointCorrupt, err)
		}
	}
	if len(w.WalkerLabels) != len(w.WalkerStates) || len(w.ServerKinds) != len(w.ServerStates) {
		return nil, fmt.Errorf("%w: inconsistent walker/server tables", ErrCheckpointMismatch)
	}
	cp := &Checkpoint{
		mark:           w.Mark,
		seed:           w.Seed,
		pageSeed:       w.PageSeed,
		frames:         w.Frames,
		pageSize:       w.PageSize,
		tapewormFrames: w.TapewormFrames,
		withXServer:    w.WithXServer,
		withBSDServer:  w.WithBSDServer,
		img:            w.Img,
		free:           w.Free,
		refcount:       w.Refcount,
		rngKernel:      w.RNGKernel,
		rngIntr:        w.RNGIntr,
		rngVM:          w.RNGVM,
		walkers:        make(map[string]textwalk.State, len(w.WalkerLabels)),
		kdataRNG:       w.KdataRNG,
		kdataHot:       w.KdataHot,
		tasks:          w.Tasks,
		servers:        make(map[ServerKind]serverState, len(w.ServerKinds)),
		run:            w.Run,
	}
	for i, label := range w.WalkerLabels {
		cp.walkers[label] = w.WalkerStates[i]
	}
	for i, kind := range w.ServerKinds {
		sw := w.ServerStates[i]
		if len(sw.Services) != len(sw.Walkers) {
			return nil, fmt.Errorf("%w: inconsistent service walker table for server %d", ErrCheckpointMismatch, kind)
		}
		ss := serverState{
			Walkers: make(map[ServiceID]textwalk.State, len(sw.Services)),
			Data:    sw.Data,
			DataHot: sw.DataHot,
		}
		for j, id := range sw.Services {
			ss.Walkers[id] = sw.Walkers[j]
		}
		cp.servers[kind] = ss
	}
	return cp, nil
}

// sortedKeys returns m's keys in sorted order, for deterministic encoding.
func sortedKeys(m map[string]textwalk.State) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
