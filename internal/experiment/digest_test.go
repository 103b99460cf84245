package experiment

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"tapeworm/internal/cache"
	"tapeworm/internal/cache2000"
	"tapeworm/internal/core"
	"tapeworm/internal/mem"
)

// digestExcluded names the only runConfig fields allowed to stay out of
// the result digest (tagged hash:"-"), with the reason each may. A new
// tag must be argued here, not just written on the field.
var digestExcluded = map[string]string{
	"runConfig.tel": "telemetry records the run; it does not steer it",
}

// fullRunConfig returns a runConfig with every pointer and slice
// populated, so that a walk over it reaches every leaf type.
func fullRunConfig(t testing.TB) (Options, runConfig) {
	t.Helper()
	o := QuickOptions()
	o.PhaseIntervals, o.PhaseK, o.PhaseWarmup = 16, 4, 1000
	spec, err := mustSpec(o, "mpeg_play")
	if err != nil {
		t.Fatal(err)
	}
	tw := dmICache(4<<10, cache.PhysIndexed, core.FullSampling())
	tw.L2 = &cache.Config{Name: "l2", Size: 64 << 10, LineSize: 32, Assoc: 2}
	tw.Window = core.Window{WarmupInstr: 10, MeasureInstr: 20}
	return o, runConfig{
		spec: spec, seed: o.Seed, pageSeed: 7, frames: o.Frames,
		tw: tw, simUser: true, simServers: true, simKernel: true,
		reference: true, gang: true,
		trace: &cache2000.Config{
			Cache:       cache.Config{Size: 4 << 10, LineSize: 16, Assoc: 1},
			Kinds:       []mem.RefKind{mem.IFetch},
			Seed:        3,
			WriteBuffer: &cache2000.WriteBufferConfig{Depth: 4, DrainCycles: 20},
		},
	}
}

// settable returns a settable view of the addressable v, unexported
// fields included.
func settable(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// perturbLeaves calls check once per perturbation of the value at v: for
// each scalar leaf a changed value, for each pointer and slice its
// presence and, for a slice, its length, then recursively their
// contents. Each perturbation is undone before the next. excluded
// reports whether the perturbed value lies under a field tagged
// hash:"-"; path names it.
func perturbLeaves(t *testing.T, v reflect.Value, path string, excluded bool,
	check func(path string, excluded bool)) {
	t.Helper()
	v = settable(v)
	old := reflect.New(v.Type()).Elem()
	old.Set(v)
	try := func(what string, set func()) {
		set()
		check(path+what, excluded)
		v.Set(old)
	}
	switch v.Kind() {
	case reflect.Bool:
		try("", func() { v.SetBool(!v.Bool()) })
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		try("", func() { v.SetInt(v.Int() + 1) })
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		try("", func() { v.SetUint(v.Uint() + 1) })
	case reflect.Float32, reflect.Float64:
		try("", func() { v.SetFloat(v.Float()*2 + 1) })
	case reflect.String:
		try("", func() { v.SetString(v.String() + "x") })
	case reflect.Pointer:
		if v.IsNil() {
			try(" (set)", func() { v.Set(reflect.New(v.Type().Elem())) })
			return
		}
		try(" (nil)", func() { v.SetZero() })
		perturbLeaves(t, v.Elem(), path, excluded, check)
	case reflect.Slice:
		if !v.IsNil() {
			try(" (nil)", func() { v.SetZero() })
		}
		try(" (grown)", func() { v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem()))) })
		for i := range v.Len() {
			perturbLeaves(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), excluded, check)
		}
	case reflect.Array:
		for i := range v.Len() {
			perturbLeaves(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), excluded, check)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			f := v.Type().Field(i)
			perturbLeaves(t, v.Field(i), path+"."+f.Name,
				excluded || f.Tag.Get("hash") == "-", check)
		}
	default:
		t.Fatalf("%s: no perturbation for a %s", path, v.Kind())
	}
}

// TestResultDigestCoversEveryField: the result digest is derived from
// runConfig by reflection, so this test is what stands between a knob
// and a stale cache hit. It perturbs every leaf of a fully populated
// runConfig, and each phase option, one at a time, and requires the
// digest to move for each perturbation outside the digestExcluded
// fields and to stay put inside them.
func TestResultDigestCoversEveryField(t *testing.T) {
	o, rc := fullRunConfig(t)
	base := resultDigest(o, rc)
	if resultDigest(o, rc) != base {
		t.Fatal("resultDigest is not deterministic")
	}

	// Exclusions: exactly the fields digestExcluded names carry the tag.
	rt := reflect.TypeOf(rc)
	tagged := map[string]bool{}
	for i := range rt.NumField() {
		if rt.Field(i).Tag.Get("hash") == "-" {
			tagged["runConfig."+rt.Field(i).Name] = true
		}
	}
	for name := range tagged {
		if _, ok := digestExcluded[name]; !ok {
			t.Errorf(`%s is tagged hash:"-" but not listed in digestExcluded: an excluded field must be argued for`, name)
		}
	}
	for name := range digestExcluded {
		if !tagged[name] {
			t.Errorf(`digestExcluded lists %s, which is not tagged hash:"-"`, name)
		}
	}

	var moved, held int
	perturbLeaves(t, reflect.ValueOf(&rc).Elem(), "runConfig", false, func(path string, excluded bool) {
		changed := resultDigest(o, rc) != base
		switch {
		case excluded && changed:
			t.Errorf(`%s is tagged hash:"-" but changes the digest`, path)
		case !excluded && !changed:
			t.Errorf("perturbing %s leaves the digest unchanged", path)
		case excluded:
			held++
		default:
			moved++
		}
	})
	for _, name := range []string{"PhaseIntervals", "PhaseK", "PhaseWarmup"} {
		po := o
		f := reflect.ValueOf(&po).Elem().FieldByName(name)
		f.SetInt(f.Int() + 1)
		if resultDigest(po, rc) == base {
			t.Errorf("perturbing Options.%s leaves the digest unchanged", name)
		}
		moved++
	}
	// A frame count of 0 means run()'s default, so it is the same run.
	zero, def := rc, rc
	zero.frames, def.frames = 0, 8192
	if resultDigest(o, zero) != resultDigest(o, def) {
		t.Error("frames 0 and frames 8192 (the default it stands for) digest differently")
	}
	t.Logf("%d perturbations moved the digest, %d under excluded fields held it", moved, held)
	if moved < 60 {
		t.Errorf("only %d perturbations checked: the walk is missing part of runConfig", moved)
	}
}

// BenchmarkResultDigest times one result digest of a Quick-scale
// mpeg_play gang member: the identity work the result cache adds to
// every run it serves or stores.
func BenchmarkResultDigest(b *testing.B) {
	o := QuickOptions()
	spec, err := mustSpec(o, "mpeg_play")
	if err != nil {
		b.Fatal(err)
	}
	rc := runConfig{
		spec: spec, seed: o.Seed, pageSeed: o.Seed, frames: o.Frames,
		tw: dmICache(4<<10, cache.PhysIndexed, core.FullSampling()), simUser: true, gang: true,
	}
	b.ReportAllocs()
	for b.Loop() {
		resultDigest(o, rc)
	}
}
