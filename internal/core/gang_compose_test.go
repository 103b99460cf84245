package core

import (
	"reflect"
	"testing"

	"tapeworm/internal/cache"
	"tapeworm/internal/kernel"
	"tapeworm/internal/mem"
	"tapeworm/internal/rng"
	"tapeworm/internal/workload"
)

// components is one member's Table 6 attribute configuration: which of
// the workload's fork tree, the X/BSD servers and the kernel it simulates.
type components struct{ user, servers, kern bool }

// composedMember is one gang member: a cache geometry plus its own
// component attributes.
type composedMember struct {
	cfg  Config
	comp components
}

// composedResult is everything a member reports that Table 6 and the
// sweeps read.
type composedResult struct {
	stats  Stats
	byComp [kernel.NumComponents]uint64
	byTask map[mem.TaskID]uint64
	ledger uint64
}

// runComposed runs wl with the members as one gang. The workload task is
// spawned unsimulated and every member sets its own attributes, as
// experiment.runGang does. midRun, when non-nil, runs after the first
// 100k instructions and before the rest.
func runComposed(t *testing.T, members []composedMember, wl string, midRun func(g *Gang, task *kernel.Task)) []composedResult {
	t.Helper()
	k := bootDEC(t, 11, 13)
	cfgs := make([]Config, len(members))
	for i, m := range members {
		cfgs[i] = m.cfg
	}
	g := MustAttachGang(k, cfgs)
	spec, err := workload.ByName(wl, testScale)
	if err != nil {
		t.Fatal(err)
	}
	task := k.Spawn(spec.Name, workload.MustNew(spec, 42), false, false)
	for i, tw := range g.Members() {
		c := members[i].comp
		if err := tw.Attributes(task.ID, c.user, c.user); err != nil {
			t.Fatal(err)
		}
		if c.servers {
			for _, kind := range []kernel.ServerKind{kernel.BSDServer, kernel.XServer} {
				if st := k.Server(kind); st != nil {
					if err := tw.Attributes(st.ID, true, false); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if c.kern {
			if err := tw.Attributes(mem.KernelTask, true, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	if midRun != nil {
		if err := k.Run(100_000); err != nil {
			t.Fatal(err)
		}
		midRun(g, task)
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	out := make([]composedResult, len(members))
	for i, tw := range g.Members() {
		out[i] = composedResult{tw.Stats(), tw.MissesByComponent(), tw.MissesByTask(), tw.LedgerCycles()}
	}
	return out
}

// table6Members is Table 6's configuration: one 4 KB direct-mapped cache
// per component plus the all-activity cache.
func table6Members() []composedMember {
	c := dmICache(4, cache.PhysIndexed)
	return []composedMember{
		{c, components{user: true}},
		{c, components{servers: true}},
		{c, components{kern: true}},
		{c, components{true, true, true}},
	}
}

// TestGangCompositionIndependence is the metamorphic property partial
// gangs and Table 6's shared execution rely on: a member's statistics do
// not depend on who else rides the gang. Random subsets of a panel —
// Table 6's four component configurations plus sweep geometries and a
// TLB with mixed attributes — must each reproduce every member's
// gang-of-1 run.
// ousterhout forks children that share text (registered before
// TaskForked fires); sdet forks two levels deep.
func TestGangCompositionIndependence(t *testing.T) {
	panel := table6Members()
	for _, g := range []struct {
		size, assoc, line int
		comp              components
	}{
		{1 << 10, 1, 16, components{true, true, true}},
		{8 << 10, 2, 32, components{user: true}},
		{16 << 10, 4, 16, components{user: true, kern: true}},
	} {
		cfg := Config{Mode: ModeICache, Sampling: FullSampling(),
			Cache: cache.Config{Size: g.size, LineSize: g.line, Assoc: g.assoc, Indexing: cache.PhysIndexed}}
		panel = append(panel, composedMember{cfg, g.comp})
	}
	// A TLB member registers data pages as well as text.
	panel = append(panel, composedMember{Config{Mode: ModeTLB, Sampling: FullSampling(),
		TLB: cache.TLBConfig{Entries: 16, PageSize: 4096, Replace: cache.LRU}},
		components{user: true, servers: true}})
	for _, wl := range []string{"ousterhout", "sdet"} {
		wl := wl
		t.Run(wl, func(t *testing.T) {
			t.Parallel()
			solo := make([]composedResult, len(panel))
			for i, m := range panel {
				solo[i] = runComposed(t, []composedMember{m}, wl, nil)[0]
			}
			// The whole panel, then random subsets of two or more members.
			subsets := [][]int{{0, 1, 2, 3, 4, 5, 6, 7}}
			r := rng.New(uint64(len(wl)))
			for len(subsets) < 5 {
				var idx []int
				for i := range panel {
					if r.Bool(0.5) {
						idx = append(idx, i)
					}
				}
				if len(idx) >= 2 {
					subsets = append(subsets, idx)
				}
			}
			for _, idx := range subsets {
				members := make([]composedMember, len(idx))
				for j, i := range idx {
					members[j] = panel[i]
				}
				got := runComposed(t, members, wl, nil)
				for j, i := range idx {
					if !reflect.DeepEqual(got[j], solo[i]) {
						t.Errorf("subset %v: member %d diverged from its gang-of-1 run:\nsolo:   %+v\nganged: %+v",
							idx, i, solo[i], got[j])
					}
				}
			}
		})
	}
}

// TestGangAttributesAreMemberLocal is the regression case for the shared
// simulate bit: tw_attributes on one member must not make another member
// register that task's pages.
func TestGangAttributesAreMemberLocal(t *testing.T) {
	members := table6Members()[:2] // user only; servers only
	got := runComposed(t, members, "mpeg_play", nil)
	user, servers := got[0], got[1]
	if user.byComp[kernel.CompServer] != 0 || user.byComp[kernel.CompKernel] != 0 {
		t.Errorf("user-only member counted server/kernel misses: %v", user.byComp)
	}
	if servers.byComp[kernel.CompUser] != 0 || servers.byComp[kernel.CompServer] == 0 {
		t.Errorf("servers-only member's split is wrong: %v", servers.byComp)
	}
	for i, m := range members {
		solo := runComposed(t, []composedMember{m}, "mpeg_play", nil)[0]
		if got[i].stats.Registrations != solo.stats.Registrations {
			t.Errorf("member %d registered %d pages ganged, %d solo",
				i, got[i].stats.Registrations, solo.stats.Registrations)
		}
	}
}

// TestGangAttributeClearedMidRun: a member that clears its simulate bit
// after registering pages must still see the unmappings at exit (its solo
// kernel reports them whatever the bit), while a member that keeps the
// bit is unaffected. Both must equal their gang-of-1 runs.
func TestGangAttributeClearedMidRun(t *testing.T) {
	members := []composedMember{
		{dmICache(4, cache.PhysIndexed), components{user: true}},
		{dmICache(8, cache.PhysIndexed), components{user: true}},
	}
	clearFirst := func(g *Gang, task *kernel.Task) {
		if err := g.Members()[0].Attributes(task.ID, false, false); err != nil {
			t.Fatal(err)
		}
	}
	got := runComposed(t, members, "mpeg_play", clearFirst)
	if got[0].stats.PagesTracked != 0 {
		t.Errorf("%d pages leaked after attribute flip and exit", got[0].stats.PagesTracked)
	}
	soloCleared := runComposed(t, members[:1], "mpeg_play", clearFirst)[0]
	soloKept := runComposed(t, members[1:], "mpeg_play", func(*Gang, *kernel.Task) {})[0]
	for i, want := range []composedResult{soloCleared, soloKept} {
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("member %d diverged from its gang-of-1 run:\nsolo:   %+v\nganged: %+v", i, want, got[i])
		}
	}
}

// dmaProgram faults in its text and data pages, runs hook, reads into its
// I/O buffer (the first data page, which the kernel's predictable-DMA
// bracket unregisters around the transfer), then loads a word past the
// 512-byte transfer.
type dmaProgram struct {
	step int
	hook func()
}

func (p *dmaProgram) Next() kernel.Event {
	p.step++
	switch p.step {
	case 1:
		return kernel.Event{Kind: kernel.EvRef, Ref: mem.Ref{VA: kernel.TextBase, Kind: mem.IFetch}}
	case 2:
		return kernel.Event{Kind: kernel.EvRef, Ref: mem.Ref{VA: kernel.DataBase, Kind: mem.Load}}
	case 3:
		p.hook()
		return kernel.Event{Kind: kernel.EvSyscall, Service: kernel.SvcRead}
	case 4:
		return kernel.Event{Kind: kernel.EvRef, Ref: mem.Ref{VA: kernel.DataBase + 2048, Kind: mem.Load}}
	}
	return kernel.Event{Kind: kernel.EvExit}
}

// TestGangDMABracketFollowsMemberBit: the kernel brackets a DMA transfer
// with tw_remove_page/tw_register_page when the union simulate bit is
// set, but a member that cleared its own bit takes no bracket solo: its
// traps stay armed through the transfer, so the load past the transfer
// still misses. The ganged member must match that run.
func TestGangDMABracketFollowsMemberBit(t *testing.T) {
	unified := func(kb int) Config {
		c := dmICache(kb, cache.PhysIndexed)
		c.Mode, c.AllowWriteClears = ModeUnified, true
		return c
	}
	run := func(cfgs []Config) []Stats {
		k := bootDEC(t, 5, 5)
		g := MustAttachGang(k, cfgs)
		p := &dmaProgram{}
		task := k.Spawn("dma", p, true, true)
		p.hook = func() {
			if err := g.Members()[0].Attributes(task.ID, false, false); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		var out []Stats
		for _, tw := range g.Members() {
			out = append(out, tw.Stats())
		}
		return out
	}
	cfgs := []Config{unified(4), unified(8)}
	got := run(cfgs)
	solo := run(cfgs[:1])[0]
	if got[0] != solo {
		t.Errorf("cleared member diverged from its gang-of-1 run:\nsolo:   %+v\nganged: %+v", solo, got[0])
	}
	if solo.Misses < 3 {
		t.Errorf("solo run counted %d misses, want the text, data and post-transfer misses", solo.Misses)
	}
}

// TestGangForkInheritance: a member's own inherit bit reaches every task
// of the fork tree, shared-text children included, exactly as the
// kernel's bits do for a solo simulator: the gang-of-1 member registers
// and removes the same mappings, for the same tasks, as a solo Tapeworm.
func TestGangForkInheritance(t *testing.T) {
	for _, wl := range []string{"ousterhout", "sdet"} {
		cfg := dmICache(4, cache.PhysIndexed)
		got := runComposed(t, []composedMember{{cfg, components{user: true}}}, wl, nil)[0]
		k := bootDEC(t, 11, 13)
		tw := MustAttach(k, cfg)
		spec, err := workload.ByName(wl, testScale)
		if err != nil {
			t.Fatal(err)
		}
		k.Spawn(spec.Name, workload.MustNew(spec, 42), true, true)
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		st := tw.Stats()
		if got.stats.Registrations != st.Registrations || got.stats.Removals != st.Removals ||
			len(got.byTask) != len(tw.MissesByTask()) {
			t.Errorf("%s: gang member registered %d, removed %d, over %d tasks; solo %d, %d, %d",
				wl, got.stats.Registrations, got.stats.Removals, len(got.byTask),
				st.Registrations, st.Removals, len(tw.MissesByTask()))
		}
		if len(got.byTask) != spec.Tasks {
			t.Errorf("%s: misses in %d tasks, want all %d", wl, len(got.byTask), spec.Tasks)
		}
	}
}

// TestGangUnionAttributes: the kernel's task structure carries the union
// of the members' bits.
func TestGangUnionAttributes(t *testing.T) {
	k := bootDEC(t, 3, 3)
	g := MustAttachGang(k, []Config{dmICache(4, cache.PhysIndexed), dmICache(8, cache.PhysIndexed)})
	a, b := g.Members()[0], g.Members()[1]
	srv := k.Server(kernel.XServer)
	if err := a.Attributes(srv.ID, true, false); err != nil {
		t.Fatal(err)
	}
	if err := b.Attributes(srv.ID, false, true); err != nil {
		t.Fatal(err)
	}
	if !srv.Simulate || !srv.Inherit {
		t.Fatalf("union bits %v/%v, want true/true", srv.Simulate, srv.Inherit)
	}
	if err := b.Attributes(12345, true, false); err == nil {
		t.Fatal("attributes on an unknown task accepted")
	}
}
