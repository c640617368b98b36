package sim

import (
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// locklessStore is a store without cross-process locking: it hides the
// wrapped store's CacheLocker, so a cache over it takes its degraded
// owner-wins path.
type locklessStore struct{ CacheStore }

func newLocklessStore(t *testing.T, dir string) CacheStore {
	t.Helper()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return locklessStore{store}
}

// TestLocklessStoreDegradedSingleflight is the end-to-end proof of the
// lockless path: two caches (two "processes") over one store without
// locking, racing the same key from many goroutines. Without
// cross-process locking the kernel may run once per cache — but never
// more, results are bit-identical everywhere, and exactly one artefact
// exists after the dust settles.
func TestLocklessStoreDegradedSingleflight(t *testing.T) {
	dir := t.TempDir()
	sc := diskScenario(21)
	want, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}

	newLocklessCache := func() *Cache {
		return NewCacheWithStore(0, newLocklessStore(t, dir))
	}
	c1, c2 := newLocklessCache(), newLocklessCache()
	var wg sync.WaitGroup
	for _, c := range []*Cache{c1, c2} {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(c *Cache) {
				defer wg.Done()
				got, err := c.Run(sc)
				if err != nil {
					t.Errorf("racing run: %v", err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Error("racing run differs from the uncached reference")
				}
			}(c)
		}
	}
	wg.Wait()

	runs := c1.Snapshot().KernelRuns + c2.Snapshot().KernelRuns
	if runs < 1 || runs > 2 {
		t.Errorf("kernel runs = %d, want 1..2 (once per cache at worst, never per request)", runs)
	}
	blobs, err := filepath.Glob(filepath.Join(dir, "*.run"))
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != 1 {
		t.Errorf("store holds %d artefacts, want exactly 1 (owner-wins collapsed the race)", len(blobs))
	}

	// A third, cold cache warms entirely from the artefact.
	c3 := newLocklessCache()
	got, err := c3.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("warm lockless-store read differs from the uncached reference")
	}
	if st := c3.Snapshot(); st.DiskHits != 1 || st.KernelRuns != 0 {
		t.Errorf("warm stats = %+v, want 1 disk hit, 0 kernel runs", st)
	}
}
