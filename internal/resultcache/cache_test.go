package resultcache

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// getString fetches key from c, building the value key+"!" and counting
// the builds.
func getString(t *testing.T, c *Cache[string, string], key string, builds *int) {
	t.Helper()
	v, err := c.Get(key, func() (string, error) { *builds++; return key + "!", nil })
	if err != nil || v != key+"!" {
		t.Fatalf("Get(%q) = %q, %v", key, v, err)
	}
}

// TestCacheCostEviction: older entries leave by cost, least recently
// used first, and the newest entry stays even when it alone exceeds the
// budget.
func TestCacheCostEviction(t *testing.T) {
	c := NewCache[string](10, func(v string) int64 { return int64(len(v)) })
	builds := 0
	getString(t, c, "aaa", &builds) // cost 4
	getString(t, c, "bbb", &builds) // cost 4, 8 held
	getString(t, c, "aaa", &builds) // hit: bbb is now least recent
	getString(t, c, "cc", &builds)  // cost 3: 11 > 10, bbb goes
	if st := c.Stats(); builds != 3 || st.Evictions != 1 || st.Cost != 7 {
		t.Fatalf("builds %d, stats %+v; want 3 builds, 1 eviction, cost 7", builds, st)
	}
	getString(t, c, "aaa", &builds)
	if builds != 3 {
		t.Fatal("recently used entry evicted in place of the least recent")
	}
	getString(t, c, "bbb", &builds)
	if builds != 4 {
		t.Fatal("evicted entry still served")
	}

	// An entry over the whole budget evicts everything else and stays.
	getString(t, c, "xxxxxxxxxxxxxxx", &builds)
	if st := c.Stats(); st.Cost != 16 {
		t.Fatalf("cost after oversized entry = %d, want 16 (it alone)", st.Cost)
	}
	getString(t, c, "xxxxxxxxxxxxxxx", &builds)
	if builds != 5 {
		t.Fatal("oversized newest entry was evicted")
	}
}

// TestCacheFailedBuildNotCached: a failed build caches nothing, so the
// next Get builds again, and a Get waiting on the failed build builds
// too.
func TestCacheFailedBuildNotCached(t *testing.T) {
	c := NewCache[string, int](4, nil)
	boom := errors.New("boom")
	release := make(chan struct{})
	started := make(chan struct{})
	var builds atomic.Int32
	failing := func() (int, error) {
		builds.Add(1)
		close(started)
		<-release
		return 0, boom
	}
	errc := make(chan error, 1)
	go func() { _, err := c.Get("k", failing); errc <- err }()
	<-started
	follower := make(chan int, 1)
	go func() {
		v, err := c.Get("k", func() (int, error) { builds.Add(1); return 7, nil })
		if err != nil {
			t.Error(err)
		}
		follower <- v
	}()
	for c.Stats().Joins == 0 { // until the follower waits on the failing build
		runtime.Gosched()
	}
	close(release)
	if err := <-errc; !errors.Is(err, boom) {
		t.Fatalf("leader err = %v, want boom", err)
	}
	if v := <-follower; v != 7 {
		t.Fatalf("follower got %d, want its own build's 7", v)
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("%d builds, want 2", n)
	}
	if st := c.Stats(); st.Misses != 2 || st.Cost != 1 {
		t.Fatalf("stats = %+v, want 2 misses and only the good value held", st)
	}
}

// TestCacheSingleFlight: concurrent Gets of one key run one build, and
// every caller receives its value.
func TestCacheSingleFlight(t *testing.T) {
	c := NewCache[string, int](4, nil)
	const workers = 8
	var builds atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Get("k", func() (int, error) {
				builds.Add(1)
				runtime.Gosched()
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Get = %d, %v; want 42", v, err)
			}
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds, want 1", n)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != workers-1 {
		t.Fatalf("stats = %+v, want 1 miss and a hit per follower", st)
	}
}

// TestCacheReset: Reset empties the cache and zeroes its counters.
func TestCacheReset(t *testing.T) {
	c := NewCache[string](2, func(string) int64 { return 1 })
	builds := 0
	for _, k := range []string{"a", "b", "c"} {
		getString(t, c, k, &builds)
	}
	c.Reset()
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("stats after Reset = %+v, want zero", st)
	}
	getString(t, c, "c", &builds)
	if builds != 4 {
		t.Fatal("Reset kept an entry")
	}
}
