package core

import (
	"fmt"
	"reflect"
	"testing"

	"tapeworm/internal/cache"
)

// wideGangConfigs builds n diverse member configurations: a rotating mix
// of cache geometries (sizes, associativities, line sizes, indexing,
// sampling) with every fifth member a TLB simulator, so wide gangs
// exercise both trap mechanisms and the mixed demux paths. Member i's
// configuration does not depend on n.
func wideGangConfigs(n int) []Config {
	out := make([]Config, 0, n)
	for i := 0; i < n; i++ {
		if i%5 == 4 {
			out = append(out, Config{
				Mode:     ModeTLB,
				TLB:      cache.TLBConfig{Entries: 8 << (i % 3), PageSize: 4096, Replace: cache.LRU},
				Sampling: FullSampling(),
			})
			continue
		}
		sampling := FullSampling()
		if i%7 == 3 {
			sampling = Sampling{Num: 1, Den: 4}
		}
		idx := cache.PhysIndexed
		if i%2 == 1 {
			idx = cache.VirtIndexed
		}
		out = append(out, Config{
			Mode: ModeICache,
			Cache: cache.Config{
				Size:     4 << (10 + i%4),
				LineSize: 16 << (i % 2),
				Assoc:    1 << (i % 3),
				Indexing: idx,
			},
			Sampling: sampling,
		})
	}
	return out
}

// runDemuxGang boots a fresh machine, attaches cfgs as one gang, runs the
// workload, and returns every member's results plus the final cycle
// count.
func runDemuxGang(t *testing.T, cfgs []Config, wl string, seed uint64) ([]memberResult, uint64) {
	t.Helper()
	k := bootDEC(t, 11, 13)
	g := MustAttachGang(k, cfgs)
	spawnWorkload(t, k, wl, seed, true)
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	out := make([]memberResult, 0, len(cfgs))
	for _, tw := range g.Members() {
		out = append(out, memberResult{tw.Stats(), tw.MissesByTask(), tw.LedgerCycles()})
	}
	return out, k.Machine().Cycles()
}

// probeMembers lists the members worth comparing in an n-member gang: the
// first and last, and those on either side of each 64-bit mask-word
// boundary.
func probeMembers(n int) []int {
	var out []int
	for _, i := range []int{0, 63, 64, 127, 128} {
		if i < n-1 {
			out = append(out, i)
		}
	}
	return append(out, n-1)
}

// TestGangDemuxByteIdentityWide checks that the bit-walk demux delivers
// exactly each member's own traps at every gang width, including widths
// whose member masks span two and three words: the members on either side
// of each mask-word boundary must match their gang-of-1 runs, and the
// shared stream must not dilate.
func TestGangDemuxByteIdentityWide(t *testing.T) {
	cfgs := wideGangConfigs(130)
	type soloRun struct {
		res    memberResult
		cycles uint64
	}
	solos := map[int]soloRun{}
	solo := func(i int) soloRun {
		if s, ok := solos[i]; ok {
			return s
		}
		res, cycles := runDemuxGang(t, cfgs[i:i+1], "eqntott", 42)
		solos[i] = soloRun{res[0], cycles}
		return solos[i]
	}
	for _, n := range []int{16, 32, 64, 65, 130} {
		t.Run(fmt.Sprintf("members=%d", n), func(t *testing.T) {
			ganged, gangCycles := runDemuxGang(t, cfgs[:n], "eqntott", 42)
			for _, i := range probeMembers(n) {
				s := solo(i)
				if !reflect.DeepEqual(s.res, ganged[i]) {
					t.Errorf("member %d diverged from solo run:\nsolo:   %+v\nganged: %+v",
						i, s.res, ganged[i])
				}
				if s.cycles != gangCycles {
					t.Errorf("member %d: solo %d cycles, ganged %d", i, s.cycles, gangCycles)
				}
			}
		})
	}
}
