package workload

import (
	"errors"
	"math"
	"testing"

	"tapeworm/internal/kernel"
	"tapeworm/internal/mem"
)

func TestSpecsValid(t *testing.T) {
	specs := Specs(DefaultScale)
	if len(specs) != 8 {
		t.Fatalf("%d workloads, want the paper's 8", len(specs))
	}
	names := map[string]bool{}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if names[s.Name] {
			t.Errorf("duplicate workload %s", s.Name)
		}
		names[s.Name] = true
	}
	for _, want := range []string{"xlisp", "espresso", "eqntott", "mpeg_play",
		"jpeg_play", "ousterhout", "sdet", "kenbus"} {
		if !names[want] {
			t.Errorf("missing workload %s", want)
		}
	}
}

func TestTable4Characteristics(t *testing.T) {
	// Spot-check spec parameters against the paper's Table 4.
	cases := []struct {
		name  string
		instr float64 // millions
		tasks int
		userF float64
	}{
		{"xlisp", 1412, 1, 0.856},
		{"espresso", 534, 1, 0.951},
		{"eqntott", 1306, 1, 0.972},
		{"mpeg_play", 1423, 1, 0.446},
		{"jpeg_play", 1793, 1, 0.788},
		{"ousterhout", 567, 15, 0.206},
		{"sdet", 823, 281, 0.208},
		{"kenbus", 176, 238, 0.220},
	}
	for _, c := range cases {
		s, err := ByName(c.name, 100)
		if err != nil {
			t.Fatal(err)
		}
		if s.PaperInstructions != c.instr {
			t.Errorf("%s instructions %v, want %v", c.name, s.PaperInstructions, c.instr)
		}
		if s.Tasks != c.tasks {
			t.Errorf("%s tasks %d, want %d", c.name, s.Tasks, c.tasks)
		}
		if s.FracUser != c.userF {
			t.Errorf("%s user fraction %v, want %v", c.name, s.FracUser, c.userF)
		}
		if got := s.TotalInstructions(); got != uint64(c.instr*1e6/100) {
			t.Errorf("%s scaled instructions %d", c.name, got)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("doom", 100); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if len(Names()) != 8 {
		t.Fatal("Names() incomplete")
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	good, _ := ByName("espresso", 100)
	bads := []func(*Spec){
		func(s *Spec) { s.Name = "" },
		func(s *Spec) { s.PaperInstructions = 0 },
		func(s *Spec) { s.Scale = 0 },
		func(s *Spec) { s.Scale = math.NaN() },
		func(s *Spec) { s.Scale = 1e12 },                      // under one instruction
		func(s *Spec) { s.PaperInstructions = math.Inf(1) },   // beyond 2^53
		func(s *Spec) { s.FracUser, s.FracKernel = 0, 0.981 }, // no user instruction
		func(s *Spec) { s.FracUser = math.NaN() },
		func(s *Spec) { s.FracUser = 0.5 }, // fractions no longer sum to 1
		func(s *Spec) { s.TextBytes = 100 },
		func(s *Spec) { s.Procs = 0 },
		func(s *Spec) { s.Tasks = 0 },
		func(s *Spec) { s.ForkDepth = 3 },
		func(s *Spec) { s.RootWorkFrac = 0 },
		func(s *Spec) { s.RootWorkFrac = math.NaN() },
	}
	for i, mutate := range bads {
		s := good
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

// TestBadScalesRefused: every entry point that takes a scale refuses a bad
// one with an error, never a panic, and no run is built from it. The bad
// scales are not positive, not finite, so large that a workload has no
// user instruction, or so small that the targets pass 2^53.
func TestBadScalesRefused(t *testing.T) {
	good, err := ByName("kenbus", 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), 1e12, 1e-300} {
		if err := CheckScale(scale); !errors.Is(err, ErrBadScale) {
			t.Errorf("CheckScale(%v) = %v, want ErrBadScale", scale, err)
		}
		if _, err := ByName("xlisp", scale); !errors.Is(err, ErrBadScale) {
			t.Errorf("ByName(xlisp, %v) err = %v, want ErrBadScale", scale, err)
		}
		s := good
		s.Scale = scale
		if _, err := NewPlanned(s, 1); err == nil {
			t.Errorf("NewPlanned at scale %v accepted", scale)
		}
		if _, err := NewReference(s, 1); err == nil {
			t.Errorf("NewReference at scale %v accepted", scale)
		}
	}
	for _, scale := range []float64{1, DefaultScale, 1e5} {
		if err := CheckScale(scale); err != nil {
			t.Errorf("CheckScale(%v): %v", scale, err)
		}
	}
}

// drain pulls events from a program until exit, with a safety bound.
func drain(t *testing.T, p kernel.Program, bound int) (instrs, data, syscalls, forks int, events []kernel.Event) {
	t.Helper()
	for i := 0; i < bound; i++ {
		ev := p.Next()
		events = append(events, ev)
		switch ev.Kind {
		case kernel.EvExit:
			return
		case kernel.EvRef:
			if ev.Ref.Kind == mem.IFetch {
				instrs++
			} else {
				data++
			}
		case kernel.EvSyscall:
			syscalls++
		case kernel.EvFork:
			forks++
		}
	}
	t.Fatalf("program did not exit within %d events", bound)
	return
}

func TestProgramDeterminism(t *testing.T) {
	spec, _ := ByName("espresso", 4000)
	a := MustNew(spec, 42)
	b := MustNew(spec, 42)
	for i := 0; i < 50000; i++ {
		ea, eb := a.Next(), b.Next()
		if ea != eb {
			t.Fatalf("programs diverged at event %d", i)
		}
		if ea.Kind == kernel.EvExit {
			return
		}
	}
}

func TestProgramSeedsDiffer(t *testing.T) {
	spec, _ := ByName("espresso", 4000)
	a := MustNew(spec, 1)
	b := MustNew(spec, 2)
	same := 0
	for i := 0; i < 1000; i++ {
		ea, eb := a.Next(), b.Next()
		if ea.Kind == kernel.EvRef && eb.Kind == kernel.EvRef && ea.Ref == eb.Ref {
			same++
		}
	}
	if same > 900 {
		t.Fatalf("different seeds produced near-identical streams (%d/1000)", same)
	}
}

func TestProgramEmitsSpecInstructionCount(t *testing.T) {
	spec, _ := ByName("eqntott", 4000)
	p := MustNew(spec, 7)
	instrs, data, syscalls, _, _ := drain(t, p, 10_000_000)
	want := int(float64(spec.UserInstructions()) * spec.RootWorkFrac)
	if instrs != want {
		t.Fatalf("emitted %d instructions, want %d", instrs, want)
	}
	if data == 0 {
		t.Fatal("no data references")
	}
	dataRate := float64(data) / float64(instrs)
	if dataRate < spec.DataRefsPerInstr*0.8 || dataRate > spec.DataRefsPerInstr*1.2 {
		t.Fatalf("data ref rate %.3f, spec %.3f", dataRate, spec.DataRefsPerInstr)
	}
	if syscalls == 0 {
		t.Fatal("no syscalls")
	}
}

func TestProgramExitIsSticky(t *testing.T) {
	spec, _ := ByName("espresso", 100000)
	p := MustNew(spec, 3)
	for i := 0; i < 1_000_000; i++ {
		if p.Next().Kind == kernel.EvExit {
			break
		}
	}
	for i := 0; i < 10; i++ {
		if p.Next().Kind != kernel.EvExit {
			t.Fatal("program resumed after exit")
		}
	}
}

func TestForkTreeCounts(t *testing.T) {
	// Count forks across the whole tree for a depth-2 workload.
	spec, _ := ByName("sdet", 4000)
	total := 0
	var walk func(p kernel.Program)
	walk = func(p kernel.Program) {
		for {
			ev := p.Next()
			if ev.Kind == kernel.EvExit {
				return
			}
			if ev.Kind == kernel.EvFork {
				total++
				walk(ev.Child) // drain children depth-first
			}
		}
	}
	walk(MustNew(spec, 5))
	if total != spec.Tasks-1 {
		t.Fatalf("fork tree produced %d children, want %d", total, spec.Tasks-1)
	}
}

func TestForkShareTextFlag(t *testing.T) {
	for _, c := range []struct {
		name string
		want bool
	}{{"ousterhout", true}, {"sdet", false}} {
		spec, _ := ByName(c.name, 4000)
		p := MustNew(spec, 5)
		for i := 0; i < 10_000_000; i++ {
			ev := p.Next()
			if ev.Kind == kernel.EvFork {
				if ev.ShareText != c.want {
					t.Errorf("%s fork ShareText = %v, want %v", c.name, ev.ShareText, c.want)
				}
				break
			}
			if ev.Kind == kernel.EvExit {
				t.Fatalf("%s root exited without forking", c.name)
			}
		}
	}
}

func TestRefsStayInUserSegments(t *testing.T) {
	spec, _ := ByName("mpeg_play", 4000)
	p := MustNew(spec, 9)
	for i := 0; i < 200000; i++ {
		ev := p.Next()
		if ev.Kind == kernel.EvExit {
			break
		}
		if ev.Kind != kernel.EvRef {
			continue
		}
		va := ev.Ref.VA
		switch ev.Ref.Kind {
		case mem.IFetch:
			if va < kernel.TextBase || va >= kernel.TextBase+mem.VAddr(spec.TextBytes) {
				t.Fatalf("ifetch outside text: %#x", va)
			}
		default:
			if va < kernel.DataBase || va >= kernel.DataBase+mem.VAddr(spec.DataBytes) {
				t.Fatalf("data ref outside data segment: %#x", va)
			}
		}
	}
}

func TestSyscallMixUsesConfiguredServices(t *testing.T) {
	spec, _ := ByName("mpeg_play", 2000)
	p := MustNew(spec, 11)
	seen := map[kernel.ServiceID]int{}
	for i := 0; i < 10_000_000; i++ {
		ev := p.Next()
		if ev.Kind == kernel.EvExit {
			break
		}
		if ev.Kind == kernel.EvSyscall {
			seen[ev.Service]++
		}
	}
	if len(seen) == 0 {
		t.Fatal("no syscalls")
	}
	for svc := range seen {
		if svc != spec.KernelSvc && svc != spec.BSDSvc && svc != spec.XSvc {
			t.Fatalf("unexpected service %v in mix", svc)
		}
	}
	// mpeg_play's BSD traffic dominates its X traffic (27.3% vs 4.0%).
	if seen[spec.BSDSvc] <= seen[spec.XSvc] {
		t.Fatalf("BSD calls (%d) should outnumber X calls (%d)",
			seen[spec.BSDSvc], seen[spec.XSvc])
	}
}

func TestRatesSolveCloseToTargets(t *testing.T) {
	// The solver's predicted instruction budget should land near the
	// spec's fractions when replayed against ServiceCosts.
	for _, name := range []string{"mpeg_play", "ousterhout"} {
		spec, _ := ByName(name, 100)
		prob, cum, svcs := spec.rates()
		if prob <= 0 {
			t.Fatalf("%s: no syscalls solved", name)
		}
		// Expected kernel+server instructions per user instruction.
		var kPer, bsdPer, xPer float64
		prev := 0.0
		for i, c := range cum {
			share := (c - prev) * prob
			prev = c
			kc, sc := kernel.ServiceCosts(svcs[i])
			kPer += share * float64(kc)
			switch kernel.ServerOf(svcs[i]) {
			case kernel.BSDServer:
				bsdPer += share * float64(sc)
			case kernel.XServer:
				xPer += share * float64(sc)
			}
		}
		user := float64(spec.UserInstructions())
		total := float64(spec.TotalInstructions())
		gotBSD := bsdPer * user / total
		if spec.FracBSD > 0 && (gotBSD < spec.FracBSD*0.85 || gotBSD > spec.FracBSD*1.15) {
			t.Errorf("%s: solved BSD share %.3f, want ~%.3f", name, gotBSD, spec.FracBSD)
		}
		gotX := xPer * user / total
		if spec.FracX > 0 && (gotX < spec.FracX*0.8 || gotX > spec.FracX*1.2) {
			t.Errorf("%s: solved X share %.3f, want ~%.3f", name, gotX, spec.FracX)
		}
	}
}

func TestChildSpecConfinesData(t *testing.T) {
	spec, _ := ByName("sdet", 100)
	c := childSpec(&spec)
	if c.DataBytes != spec.DataHotBytes {
		t.Fatalf("child data %d, want hot subset %d", c.DataBytes, spec.DataHotBytes)
	}
	if c.StreamFrac != 0 {
		t.Fatal("children should not stream")
	}
	if spec.DataBytes == c.DataBytes {
		t.Fatal("childSpec mutated the parent spec")
	}
}

// TestNextRunEquivalentToNext pins the BatchProgram contract for workload
// programs: the event stream is identical whether the program is driven
// per-instruction through Next or in runs through NextRun, fork trees
// included. Children surfaced by matching fork events are paired up and
// drained the same two ways.
func TestNextRunEquivalentToNext(t *testing.T) {
	for _, wl := range []string{"espresso", "ousterhout", "sdet"} {
		spec, err := ByName(wl, 4000)
		if err != nil {
			t.Fatal(err)
		}
		type pair struct{ single, batched kernel.Program }
		queue := []pair{{MustNew(spec, 17), MustNew(spec, 17)}}
		widths := []int{1, 5, 32, 500}
		for len(queue) > 0 {
			pr := queue[0]
			queue = queue[1:]
			bp := pr.batched.(kernel.BatchProgram)
			for step := 0; step < 10_000_000; {
				base, n, ev := bp.NextRun(widths[step%len(widths)])
				if n > 0 {
					for i := 0; i < n; i++ {
						want := pr.single.Next()
						ref := mem.Ref{VA: base + mem.VAddr(4*i), Kind: mem.IFetch}
						if want.Kind != kernel.EvRef || want.Ref != ref {
							t.Fatalf("%s step %d: run fetch %+v, Next gave %+v", wl, step+i, ref, want)
						}
					}
					step += n
					continue
				}
				want := pr.single.Next()
				if want.Kind != ev.Kind || want.Ref != ev.Ref ||
					want.Service != ev.Service || want.ShareText != ev.ShareText {
					t.Fatalf("%s step %d: NextRun event %+v, Next event %+v", wl, step, ev, want)
				}
				step++
				if ev.Kind == kernel.EvFork {
					queue = append(queue, pair{want.Child, ev.Child})
				}
				if ev.Kind == kernel.EvExit {
					break
				}
			}
		}
	}
}
