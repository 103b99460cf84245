// Package workload synthesizes the paper's eight benchmark workloads
// (Table 3) as deterministic reference-stream generators with the
// instruction mixes, OS-interaction rates, and task-fork structure of
// Table 4, scaled down ~100x in instruction count so the full evaluation
// suite runs in minutes (the scale is a parameter; ratios are unaffected).
//
// The generators run as kernel Programs: they emit user instruction
// fetches with program-like locality (package textwalk), data references
// over a hot/cold footprint, syscalls into the kernel and the BSD/X
// servers at rates solved from the paper's per-component time fractions,
// and fork trees of up to 281 tasks.
package workload

import (
	"errors"
	"fmt"
	"math"

	"tapeworm/internal/kernel"
)

// DefaultScale divides the paper's instruction counts. At 100, mpeg_play
// executes ~14.2M instructions instead of 1,423M.
const DefaultScale = 100

// Spec describes one workload. The exported fields mirror what the paper
// reports (Tables 3 and 4) plus the locality parameters that shape the
// miss-ratio-versus-cache-size curves.
type Spec struct {
	Name        string
	Description string

	// PaperInstructions is the paper's Table 4 instruction count (all
	// components), in millions. Scale divides it.
	PaperInstructions float64
	Scale             float64

	// Target time/instruction fractions per component (Table 4).
	FracKernel, FracBSD, FracX, FracUser float64

	// User-code locality model.
	TextBytes uint32  // program text footprint
	Procs     int     // procedures the text divides into
	ZipfSkew  float64 // procedure popularity skew
	VisitLen  int     // instructions per procedure visit
	PhaseLen  uint64  // user instructions per working-set phase (0 = one phase)

	// Data reference model.
	DataBytes        uint32
	DataHotBytes     uint32
	DataRefsPerInstr float64
	StoreFrac        float64
	StreamFrac       float64 // fraction of data refs that stream sequentially

	// Which services represent this workload's kernel, BSD-server and
	// X-server interactions.
	KernelSvc, BSDSvc, XSvc kernel.ServiceID

	// Fork-tree structure (Table 4 User Task Count).
	Tasks          int  // total user tasks including the root
	ChildShareText bool // classic fork (share text) vs fork+exec
	ForkDepth      int  // 1: root forks all children; 2: two-level tree
	RootWorkFrac   float64
}

// Validate checks spec consistency.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workload: unnamed spec")
	}
	if !(s.PaperInstructions > 0) || !(s.Scale > 0) {
		return fmt.Errorf("workload %s: instruction count %v and scale %v must be positive",
			s.Name, s.PaperInstructions, s.Scale)
	}
	f := s.FracKernel + s.FracBSD + s.FracX + s.FracUser
	if !(f >= 0.99 && f <= 1.01) {
		return fmt.Errorf("workload %s: component fractions sum to %v, want 1", s.Name, f)
	}
	// The instruction targets are float quotients converted to integers:
	// from 2^53 up the conversion is inexact or undefined, and a stream
	// without a user instruction simulates nothing. The user target also
	// picks the execution path (the compile budget), so a garbage target
	// must not reach a run.
	if total := s.PaperInstructions * 1e6 / s.Scale; !(total < 1<<53) || math.Floor(total)*s.FracUser < 1 {
		return fmt.Errorf("workload %s: scale %v gives %.4g instructions, %.4g of them user; want at least one user instruction and fewer than 2^53 in all",
			s.Name, s.Scale, total, math.Floor(total)*s.FracUser)
	}
	if s.TextBytes < 1024 || s.Procs < 1 {
		return fmt.Errorf("workload %s: text too small or no procedures", s.Name)
	}
	if s.Tasks < 1 {
		return fmt.Errorf("workload %s: task count %d", s.Name, s.Tasks)
	}
	if s.ForkDepth < 1 || s.ForkDepth > 2 {
		return fmt.Errorf("workload %s: fork depth %d unsupported", s.Name, s.ForkDepth)
	}
	if !(s.RootWorkFrac > 0 && s.RootWorkFrac <= 1) {
		return fmt.Errorf("workload %s: root work fraction %v", s.Name, s.RootWorkFrac)
	}
	// The rate solver attributes KernelSvc cost entirely to the kernel;
	// a server-backed service there would add server time no fraction
	// accounts for.
	if kernel.ServerOf(s.KernelSvc) != kernel.NoServer {
		return fmt.Errorf("workload %s: KernelSvc %v is server-backed; use BSDSvc/XSvc for server traffic",
			s.Name, s.KernelSvc)
	}
	return nil
}

// TotalInstructions returns the scaled all-component instruction target.
func (s Spec) TotalInstructions() uint64 {
	return uint64(s.PaperInstructions * 1e6 / s.Scale)
}

// UserInstructions returns the scaled user-component instruction target.
func (s Spec) UserInstructions() uint64 {
	return uint64(float64(s.TotalInstructions()) * s.FracUser)
}

// fixedKernelInstr estimates the kernel instructions a run spends on task
// management rather than syscall service: forks, exits, and VM page
// faults. These costs are per-event, so at reduced workload scales they
// loom larger; the rate solver subtracts them from the kernel budget.
func (s Spec) fixedKernelInstr() float64 {
	forkC, exitC, faultC := kernel.FixedTaskCosts()
	const ps = 4096
	pages := func(b uint32) int { return int((b + ps - 1) / ps) }

	// Every task faults its text, its hot data, and a couple of stack
	// pages. Only the root streams over the full data footprint; children
	// are confined to the hot subset (they model short-lived utilities),
	// with cold coverage bounded by how many cold references the root
	// issues.
	rootInstr := float64(s.UserInstructions()) * s.RootWorkFrac
	coldRefs := int(rootInstr * s.DataRefsPerInstr * (0.2 + s.StreamFrac))
	coldPages := pages(s.DataBytes) - pages(s.DataHotBytes)
	if coldRefs < coldPages {
		coldPages = coldRefs
	}
	perTaskBase := pages(s.TextBytes) + pages(s.DataHotBytes) + 2
	faults := float64(s.Tasks*perTaskBase) + float64(coldPages)
	return float64(s.Tasks*(forkC+exitC)) + faults*float64(faultC)
}

// rates solves per-user-instruction syscall rates from the component
// fractions and the kernel's published service costs, so that the
// generated run lands near the Table 4 distribution. Interrupt handling
// and context switches add a little extra kernel time on top;
// EXPERIMENTS.md reports the measured result.
func (s Spec) rates() (prob float64, cum [3]float64, svcs [3]kernel.ServiceID) {
	svcs = [3]kernel.ServiceID{s.KernelSvc, s.BSDSvc, s.XSvc}
	if s.FracUser <= 0 {
		panic("workload: zero user fraction")
	}
	kcK, _ := kernel.ServiceCosts(s.KernelSvc)
	kcB, scB := kernel.ServiceCosts(s.BSDSvc)
	kcX, scX := kernel.ServiceCosts(s.XSvc)

	var rB, rX float64
	if s.FracBSD > 0 && scB > 0 {
		rB = (s.FracBSD / s.FracUser) / float64(scB)
	}
	if s.FracX > 0 && scX > 0 {
		rX = (s.FracX / s.FracUser) / float64(scX)
	}
	kernelBudget := s.FracKernel*float64(s.TotalInstructions()) - s.fixedKernelInstr()
	if kernelBudget < 0 {
		kernelBudget = 0
	}
	kFromServers := rB*float64(kcB) + rX*float64(kcX)
	rK := (kernelBudget/float64(s.UserInstructions()) - kFromServers) / float64(kcK)
	if rK < 0 {
		rK = 0
	}
	total := rK + rB + rX
	if total <= 0 {
		return 0, cum, svcs // no syscalls at all
	}
	if total > 0.5 {
		total = 0.5 // never more syscalls than instructions
	}
	cum[0] = rK / total
	cum[1] = cum[0] + rB/total
	cum[2] = 1
	return total, cum, svcs
}

// ErrBadScale reports an instruction-scale divisor CheckScale rejects.
var ErrBadScale = errors.New("workload: bad scale")

// CheckScale reports whether scale is a valid instruction-scale divisor:
// finite and positive, with every paper workload's instruction targets in
// range (see Spec.Validate). It returns an error wrapping ErrBadScale
// otherwise. ByName, experiment.Options.Validate and twsim's flag checks
// refuse scales through it.
func CheckScale(scale float64) error {
	for _, s := range paperSpecs(scale) {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("%w %v (%v)", ErrBadScale, scale, err)
		}
	}
	return nil
}

// Specs returns the paper's eight workloads (Table 3/Table 4) at the given
// scale divisor (use DefaultScale for the standard evaluation). It panics
// on a scale CheckScale rejects.
func Specs(scale float64) []Spec {
	if err := CheckScale(scale); err != nil {
		panic(err)
	}
	return paperSpecs(scale)
}

// paperSpecs returns the paper's eight workloads at scale, unvalidated.
func paperSpecs(scale float64) []Spec {
	mk := func(s Spec) Spec {
		s.Scale = scale
		if s.KernelSvc == kernel.SvcNull {
			s.KernelSvc = kernel.SvcRead // default kernel-only service
		}
		return s
	}
	return []Spec{
		mk(Spec{
			Name:              "xlisp",
			Description:       "Lisp interpreter solving 8-queens (SPEC92)",
			PaperInstructions: 1412,
			FracKernel:        0.073, FracBSD: 0.071, FracX: 0.0, FracUser: 0.856,
			// The interpreter's dispatch loop cycles through an 8 KB
			// core: it thrashes a 4 KB cache but "performs much better
			// in a cache only slightly larger" (Section 4.2).
			TextBytes: 16 << 10, Procs: 4, ZipfSkew: 0.4, VisitLen: 160,
			DataBytes: 640 << 10, DataHotBytes: 48 << 10,
			DataRefsPerInstr: 0.38, StoreFrac: 0.30,
			KernelSvc: kernel.SvcVM, BSDSvc: kernel.SvcBSDFile, XSvc: kernel.SvcXRender,
			Tasks: 1, ForkDepth: 1, RootWorkFrac: 1,
		}),
		mk(Spec{
			Name:              "espresso",
			Description:       "Boolean function minimization (SPEC92)",
			PaperInstructions: 534,
			FracKernel:        0.029, FracBSD: 0.019, FracX: 0.0, FracUser: 0.951,
			TextBytes: 4 << 10, Procs: 4, ZipfSkew: 1.2, VisitLen: 500,
			DataBytes: 256 << 10, DataHotBytes: 24 << 10,
			DataRefsPerInstr: 0.33, StoreFrac: 0.20,
			BSDSvc: kernel.SvcBSDFile, XSvc: kernel.SvcXRender,
			Tasks: 1, ForkDepth: 1, RootWorkFrac: 1,
		}),
		mk(Spec{
			Name:              "eqntott",
			Description:       "Boolean equation to truth table (SPEC92)",
			PaperInstructions: 1306,
			FracKernel:        0.015, FracBSD: 0.012, FracX: 0.0, FracUser: 0.972,
			// Dominated by one tight comparison loop: near-zero I-misses.
			TextBytes: 3 << 10, Procs: 2, ZipfSkew: 1.5, VisitLen: 2200,
			DataBytes: 1 << 20, DataHotBytes: 16 << 10,
			DataRefsPerInstr: 0.42, StoreFrac: 0.10, StreamFrac: 0.5,
			BSDSvc: kernel.SvcBSDFile, XSvc: kernel.SvcXRender,
			Tasks: 1, ForkDepth: 1, RootWorkFrac: 1,
		}),
		mk(Spec{
			Name:              "mpeg_play",
			Description:       "Berkeley mpeg_play 2.0 decoding 610 frames",
			PaperInstructions: 1423,
			FracKernel:        0.241, FracBSD: 0.273, FracX: 0.040, FracUser: 0.446,
			// Decode pipeline cycling over ~32 KB of text (Table 9:
			// page-allocation variance peaks at 32K, "roughly the size
			// of program text used by mpeg_play").
			TextBytes: 32 << 10, Procs: 14, ZipfSkew: 0.55, VisitLen: 260,
			PhaseLen:  1 << 19,
			DataBytes: 1536 << 10, DataHotBytes: 64 << 10,
			DataRefsPerInstr: 0.35, StoreFrac: 0.25, StreamFrac: 0.6,
			BSDSvc: kernel.SvcBSDFile, XSvc: kernel.SvcXRender,
			Tasks: 1, ForkDepth: 1, RootWorkFrac: 1,
		}),
		mk(Spec{
			Name:              "jpeg_play",
			Description:       "xloadimage displaying four JPEG images",
			PaperInstructions: 1793,
			FracKernel:        0.091, FracBSD: 0.094, FracX: 0.026, FracUser: 0.788,
			TextBytes: 4608, Procs: 4, ZipfSkew: 1.0, VisitLen: 700,
			PhaseLen:  1 << 20,
			DataBytes: 1 << 20, DataHotBytes: 32 << 10,
			DataRefsPerInstr: 0.36, StoreFrac: 0.22, StreamFrac: 0.55,
			BSDSvc: kernel.SvcBSDFile, XSvc: kernel.SvcXRender,
			Tasks: 1, ForkDepth: 1, RootWorkFrac: 1,
		}),
		mk(Spec{
			Name:              "ousterhout",
			Description:       "Ousterhout's OS benchmark suite",
			PaperInstructions: 567,
			FracKernel:        0.480, FracBSD: 0.314, FracX: 0.0, FracUser: 0.206,
			TextBytes: 10 << 10, Procs: 6, ZipfSkew: 0.8, VisitLen: 120,
			DataBytes: 512 << 10, DataHotBytes: 16 << 10,
			DataRefsPerInstr: 0.34, StoreFrac: 0.35,
			KernelSvc: kernel.SvcWrite, BSDSvc: kernel.SvcBSDProc, XSvc: kernel.SvcXRender,
			Tasks: 15, ChildShareText: true, ForkDepth: 1, RootWorkFrac: 0.2,
		}),
		mk(Spec{
			Name:              "sdet",
			Description:       "SPEC SDM multiprocess system benchmark",
			PaperInstructions: 823,
			FracKernel:        0.437, FracBSD: 0.355, FracX: 0.0, FracUser: 0.208,
			// 281 short-lived tasks exec'ing distinct programs: heavy
			// compulsory misses and fork-tree inheritance.
			TextBytes: 8 << 10, Procs: 4, ZipfSkew: 0.7, VisitLen: 180,
			DataBytes: 128 << 10, DataHotBytes: 16 << 10,
			DataRefsPerInstr: 0.33, StoreFrac: 0.30,
			KernelSvc: kernel.SvcProcess, BSDSvc: kernel.SvcBSDExec, XSvc: kernel.SvcXRender,
			Tasks: 281, ChildShareText: false, ForkDepth: 2, RootWorkFrac: 0.05,
		}),
		mk(Spec{
			Name:              "kenbus",
			Description:       "SPEC SDM simulated software-development users",
			PaperInstructions: 176,
			FracKernel:        0.489, FracBSD: 0.291, FracX: 0.0, FracUser: 0.220,
			TextBytes: 6 << 10, Procs: 4, ZipfSkew: 0.7, VisitLen: 150,
			DataBytes: 96 << 10, DataHotBytes: 12 << 10,
			DataRefsPerInstr: 0.32, StoreFrac: 0.30,
			KernelSvc: kernel.SvcRead, BSDSvc: kernel.SvcBSDExec, XSvc: kernel.SvcXRender,
			Tasks: 238, ChildShareText: false, ForkDepth: 2, RootWorkFrac: 0.05,
		}),
	}
}

// ByName returns the named spec at the given scale, or an error for an
// unknown name or a scale CheckScale rejects.
func ByName(name string, scale float64) (Spec, error) {
	if err := CheckScale(scale); err != nil {
		return Spec{}, err
	}
	for _, s := range paperSpecs(scale) {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown workload %q", name)
}

// Names lists the workload names in Table 3 order.
func Names() []string {
	specs := Specs(DefaultScale)
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}
