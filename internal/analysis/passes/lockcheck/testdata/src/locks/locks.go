// Package locks exercises the lockcheck pass: Mutex/RWMutex balance with
// defer credits, TryLock conditional acquires, goroutine bodies as their
// own scopes, and the //twvet:allow lockcheck escape hatch for functions
// that return holding a lock.
//
//twvet:scope lockcheck
package locks

import "sync"

type table struct {
	mu  sync.Mutex
	rw  sync.RWMutex
	m   map[string]int
	sum int
}

// deferBalanced is the canonical shape.
func (t *table) deferBalanced(k string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[k]
}

// explicitBalanced unlocks on both paths.
func (t *table) explicitBalanced(k string) int {
	t.mu.Lock()
	if v, ok := t.m[k]; ok {
		t.mu.Unlock()
		return v
	}
	t.mu.Unlock()
	return 0
}

// leakOnEarlyReturn forgets the unlock on the hit path.
func (t *table) leakOnEarlyReturn(k string) int {
	t.mu.Lock()
	if v, ok := t.m[k]; ok {
		return v // want `sync.Mutex lock acquired but not released`
	}
	t.mu.Unlock()
	return 0
}

// doubleUnlock releases more than it acquired.
func (t *table) doubleUnlock() {
	t.mu.Lock()
	t.mu.Unlock()
	t.mu.Unlock()
} // want `sync.Mutex lock released more times than acquired`

// tryLockBalanced holds the lock only inside the success branch.
func (t *table) tryLockBalanced(k string, v int) bool {
	if t.mu.TryLock() {
		t.m[k] = v
		t.mu.Unlock()
		return true
	}
	return false
}

// tryLockLeaked wins the lock and forgets to release it.
func (t *table) tryLockLeaked(k string, v int) bool {
	if t.mu.TryLock() {
		t.m[k] = v
		return true // want `sync.Mutex lock acquired but not released`
	}
	return false
}

// readersBalanced pairs RLock with RUnlock.
func (t *table) readersBalanced(k string) int {
	t.rw.RLock()
	defer t.rw.RUnlock()
	return t.m[k]
}

// readLockWriteUnlock mismatches the RWMutex's two pairs: the write
// unlock (first imbalanced pair in table order) has no write lock, and
// the read lock is never released.
func (t *table) readLockWriteUnlock(k string) int {
	t.rw.RLock()
	defer t.rw.Unlock()
	return t.m[k] // want `sync.RWMutex write lock released more times than acquired`
}

// goroutineBalanced locks inside a goroutine body, which balances as its
// own scope (the scheduler worker-loop shape).
func (t *table) goroutineBalanced(keys []string) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, k := range keys {
			t.mu.Lock()
			t.sum += t.m[k]
			t.mu.Unlock()
		}
	}()
	<-done
}

// goroutineLeaked leaks inside the goroutine: the enclosing function is
// balanced, the literal is not.
func (t *table) goroutineLeaked(k string) {
	go func() {
		t.mu.Lock()
		t.sum += t.m[k]
	}() // want `sync.Mutex lock acquired but not released on this path through this function literal`
}

// deferredClosureBalanced unlocks through a deferred closure: the credit
// belongs to the enclosing function, and the closure itself must not be
// double-checked as a standalone scope.
func (t *table) deferredClosureBalanced(k string, v int) {
	t.mu.Lock()
	defer func() {
		t.sum++
		t.mu.Unlock()
	}()
	t.m[k] = v
}

// lockForCaller returns holding the lock by contract; the caller calls
// unlockFor when done. The annotation is load-bearing: lock ownership
// crosses the call boundary, which the intra-procedural check cannot
// follow.
//
//twvet:allow lockcheck
func (t *table) lockForCaller() map[string]int {
	t.mu.Lock()
	return t.m
}

// unlockFor is lockForCaller's paired release.
//
//twvet:allow lockcheck
func (t *table) unlockFor() {
	t.mu.Unlock()
}
