package sim

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

// scriptStore is a programmable in-memory CacheStore for policy tests:
// fail the next N ops, block ops until released, count calls.
type scriptStore struct {
	mu    sync.Mutex
	fails int // fail this many upcoming ops
	calls int
	data  map[string][]byte

	block   chan struct{} // when non-nil, ops block here first
	entered chan struct{} // signalled once per op that starts blocking
}

func newScriptStore() *scriptStore {
	return &scriptStore{data: map[string][]byte{}}
}

// step applies the common scripted prelude; the returned error is the
// injected failure, if any.
func (s *scriptStore) step() error {
	s.mu.Lock()
	s.calls++
	block := s.block
	entered := s.entered
	fail := s.fails > 0
	if fail {
		s.fails--
	}
	s.mu.Unlock()
	if block != nil {
		if entered != nil {
			entered <- struct{}{}
		}
		<-block
	}
	if fail {
		return errors.New("scripted store failure")
	}
	return nil
}

func (s *scriptStore) failNext(n int) {
	s.mu.Lock()
	s.fails = n
	s.mu.Unlock()
}

func (s *scriptStore) callCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func (s *scriptStore) Get(name string) ([]byte, error) {
	if err := s.step(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.data[name]
	if !ok {
		return nil, ErrArtefactNotFound
	}
	return data, nil
}

func (s *scriptStore) Put(name string, data []byte) error {
	if err := s.step(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data[name] = data
	return nil
}

func (s *scriptStore) Quarantine(name, reason string) error {
	if err := s.step(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.data, name)
	return nil
}

// policyStats reads the resilience counters off a wrapped store.
func policyStats(t *testing.T, s CacheStore) ResilienceStats {
	t.Helper()
	rep, ok := s.(interface{ ResilienceStats() ResilienceStats })
	if !ok {
		t.Fatal("store does not report resilience stats")
	}
	return rep.ResilienceStats()
}

// TestBreakerLifecycle walks the circuit breaker through its full state
// machine — closed → open on K consecutive faults, fast-fail while
// open, half-open probe after the cooldown, re-close on success, and
// re-open on a failed probe — asserting the stats at each transition.
func TestBreakerLifecycle(t *testing.T) {
	inner := newScriptStore()
	inner.data["a"] = []byte("payload")
	const cooldown = 40 * time.Millisecond
	rs := NewResilientStore(inner, ResilienceConfig{
		Retries:          -1, // one attempt per op: op failures map 1:1 to breaker failures
		BreakerThreshold: 3,
		BreakerCooldown:  cooldown,
		Seed:             1,
	})

	if st := policyStats(t, rs); st.BreakerState != "closed" || st.BreakerOpens != 0 {
		t.Fatalf("initial stats = %+v, want closed breaker with 0 opens", st)
	}

	// Three consecutive failures open the breaker.
	inner.failNext(3)
	for i := 0; i < 3; i++ {
		if _, err := rs.Get("a"); err == nil {
			t.Fatalf("fault %d: Get succeeded, want injected failure", i)
		}
	}
	if st := policyStats(t, rs); st.BreakerState != "open" || st.BreakerOpens != 1 {
		t.Fatalf("after 3 faults: stats = %+v, want open breaker with 1 open", st)
	}

	// Open breaker fast-fails without touching the store.
	calls := inner.callCount()
	if _, err := rs.Get("a"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open-breaker Get error = %v, want ErrBreakerOpen", err)
	}
	if inner.callCount() != calls {
		t.Fatal("open breaker let an operation through to the store")
	}

	// After the cooldown the half-open probe reaches the healed store
	// and re-closes the breaker.
	time.Sleep(cooldown + 10*time.Millisecond)
	data, err := rs.Get("a")
	if err != nil || string(data) != "payload" {
		t.Fatalf("half-open probe Get = %q, %v; want payload, nil", data, err)
	}
	if st := policyStats(t, rs); st.BreakerState != "closed" || st.BreakerOpens != 1 {
		t.Fatalf("after probe success: stats = %+v, want re-closed breaker", st)
	}

	// A failed probe re-opens immediately.
	inner.failNext(4) // 3 to open + 1 for the probe
	for i := 0; i < 3; i++ {
		rs.Get("a")
	}
	time.Sleep(cooldown + 10*time.Millisecond)
	if _, err := rs.Get("a"); err == nil {
		t.Fatal("failing half-open probe succeeded")
	}
	if st := policyStats(t, rs); st.BreakerState != "open" || st.BreakerOpens != 3 {
		t.Fatalf("after failed probe: stats = %+v, want re-opened breaker (opens: trip, probe-fail)", st)
	}
}

// TestRetryRecoversTransientFaults asserts a transient fault burst
// shorter than the retry budget is absorbed: the caller sees success,
// the retries are counted, and a clean miss is never retried.
func TestRetryRecoversTransientFaults(t *testing.T) {
	inner := newScriptStore()
	inner.data["a"] = []byte("payload")
	rs := NewResilientStore(inner, ResilienceConfig{
		Retries:          2,
		RetryBase:        time.Millisecond,
		RetryCap:         4 * time.Millisecond,
		BreakerThreshold: -1,
		Seed:             1,
	})

	inner.failNext(2)
	data, err := rs.Get("a")
	if err != nil || string(data) != "payload" {
		t.Fatalf("Get after 2 transient faults = %q, %v; want payload, nil", data, err)
	}
	if st := policyStats(t, rs); st.Retries != 2 {
		t.Fatalf("stats = %+v, want 2 retries", st)
	}

	// A miss is the store answering, not failing: no retry.
	if _, err := rs.Get("absent"); !errors.Is(err, ErrArtefactNotFound) {
		t.Fatalf("Get(absent) error = %v, want ErrArtefactNotFound", err)
	}
	if st := policyStats(t, rs); st.Retries != 2 {
		t.Fatalf("stats = %+v: a clean miss was retried", st)
	}

	// A burst longer than the budget surfaces the store's error.
	inner.failNext(5)
	if _, err := rs.Get("a"); err == nil {
		t.Fatal("Get succeeded through a fault burst longer than the retry budget")
	}
}

// TestOpTimeoutBounds asserts a hung store operation returns
// ErrStoreTimeout within the configured bound instead of blocking the
// caller until the store recovers.
func TestOpTimeoutBounds(t *testing.T) {
	inner := newScriptStore()
	inner.block = make(chan struct{})
	inner.entered = make(chan struct{}, 4)
	defer close(inner.block) // release the abandoned goroutine

	const bound = 30 * time.Millisecond
	rs := NewResilientStore(inner, ResilienceConfig{
		OpTimeout:        bound,
		Retries:          -1,
		BreakerThreshold: -1,
		Seed:             1,
	})

	start := time.Now()
	_, err := rs.Get("a")
	elapsed := time.Since(start)
	if !errors.Is(err, ErrStoreTimeout) {
		t.Fatalf("hung Get error = %v, want ErrStoreTimeout", err)
	}
	if elapsed > 10*bound {
		t.Fatalf("hung Get took %v, want ~%v", elapsed, bound)
	}
	if st := policyStats(t, rs); st.Timeouts != 1 {
		t.Fatalf("stats = %+v, want 1 timeout", st)
	}
}

// TestAsyncPublishDrainAndBackpressure exercises the bounded-budget
// publisher: queued publishes land after Close's drain, an over-budget
// publish backpressures onto the caller's synchronous path (never
// dropped), and only publishes after Close are dropped — counted, not
// lost in a panic.
func TestAsyncPublishDrainAndBackpressure(t *testing.T) {
	inner := newScriptStore()
	inner.block = make(chan struct{})
	inner.entered = make(chan struct{}, 4)
	rs := NewResilientStore(inner, ResilienceConfig{
		Retries:          -1,
		BreakerThreshold: -1,
		AsyncPublish:     true,
		PublishBudget:    1,
		Seed:             1,
	})

	// First publish: the worker picks it up and blocks inside the store.
	if err := rs.Put("a", []byte("A")); err != nil {
		t.Fatalf("async Put returned %v", err)
	}
	<-inner.entered // worker is inside inner.Put("a")
	// Second fills the 1-deep queue; third is over budget — it must
	// backpressure onto the caller's own goroutine, not drop.
	rs.Put("b", []byte("B"))
	overBudget := make(chan struct{})
	go func() {
		defer close(overBudget)
		rs.Put("c", []byte("C"))
	}()
	<-inner.entered // the backpressured Put is inside inner.Put("c")
	if st := policyStats(t, rs); st.PublishDrops != 0 {
		t.Fatalf("stats = %+v: backpressure dropped a publish", st)
	}

	close(inner.block)
	<-overBudget
	closer := rs.(interface{ Close() error })
	if err := closer.Close(); err != nil {
		t.Fatalf("Close = %v, want clean drain", err)
	}
	inner.mu.Lock()
	gotA, gotB, gotC := inner.data["a"], inner.data["b"], inner.data["c"]
	inner.mu.Unlock()
	if string(gotA) != "A" || string(gotB) != "B" || string(gotC) != "C" {
		t.Fatalf("drained store holds a=%q b=%q c=%q, want all three", gotA, gotB, gotC)
	}

	// Publishing after Close drops silently.
	if err := rs.Put("d", []byte("D")); err != nil {
		t.Fatalf("post-close Put returned %v", err)
	}
	if st := policyStats(t, rs); st.PublishDrops != 1 {
		t.Fatalf("stats = %+v, want 1 publish drop from the post-close Put", st)
	}
	if err := closer.Close(); err != nil {
		t.Fatalf("second Close = %v, want idempotent nil", err)
	}
}

// TestBreakerDegradesCacheToMemoryOnly runs a cache over a persistently
// failing store: every run still answers correctly (kernel re-runs, the
// memory tier serves repeats), the breaker opens and the stats surface
// through Cache.Snapshot.
func TestBreakerDegradesCacheToMemoryOnly(t *testing.T) {
	inner := newScriptStore()
	inner.failNext(1 << 30) // fail everything, forever
	rs := NewResilientStore(inner, ResilienceConfig{
		Retries:          -1,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute, // stays open for the whole test
		Seed:             1,
	})
	c := NewCacheWithStore(0, rs)
	defer c.Close()

	sc := diskScenario(7)
	want, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := c.Run(sc)
		if err != nil {
			t.Fatalf("run %d against a dead store: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d differs from the uncached reference", i)
		}
	}
	st := c.Snapshot()
	if st.KernelRuns != 1 {
		t.Errorf("kernel runs = %d, want 1 (memory tier still serves repeats)", st.KernelRuns)
	}
	if st.Hits != 2 {
		t.Errorf("memory hits = %d, want 2", st.Hits)
	}
	if st.BreakerOpens == 0 || st.BreakerState != "open" {
		t.Errorf("stats = %+v, want an open breaker", st)
	}
	if st.StoreErrors == 0 {
		t.Errorf("stats = %+v, want counted store errors", st)
	}
}

// blockingLocker is a CacheStore+CacheLocker whose Lock never acquires
// until the context ends.
type blockingLocker struct {
	*scriptStore
}

func (b *blockingLocker) Lock(ctx context.Context, name string) (func(), error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestLockTimeoutSurfacesAsStoreTimeout asserts the policy layer's
// LockTimeout converts a wedged lock acquisition into ErrStoreTimeout
// (the signal the cache degrades on) while genuine caller cancellation
// passes through untouched.
func TestLockTimeoutSurfacesAsStoreTimeout(t *testing.T) {
	inner := &blockingLocker{newScriptStore()}
	rs := NewResilientStore(inner, ResilienceConfig{
		LockTimeout:      20 * time.Millisecond,
		Retries:          -1,
		BreakerThreshold: -1,
		Seed:             1,
	})
	locker, ok := rs.(CacheLocker)
	if !ok {
		t.Fatal("resilient wrapper over a locking store lost CacheLocker")
	}

	if _, err := locker.Lock(context.Background(), "a"); !errors.Is(err, ErrStoreTimeout) {
		t.Fatalf("wedged Lock error = %v, want ErrStoreTimeout", err)
	}
	if st := policyStats(t, rs); st.Timeouts != 1 {
		t.Fatalf("stats = %+v, want 1 timeout", st)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(5 * time.Millisecond); cancel() }()
	if _, err := locker.Lock(ctx, "a"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Lock error = %v, want context.Canceled", err)
	}
	if st := policyStats(t, rs); st.Timeouts != 1 {
		t.Fatalf("stats = %+v: caller cancellation was miscounted as a store timeout", st)
	}
}

// TestResilientStorePreservesLockerShape asserts the wrapper implements
// CacheLocker exactly when the wrapped store does — the property the
// cache's singleflight dispatch relies on.
func TestResilientStorePreservesLockerShape(t *testing.T) {
	dir, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := NewResilientStore(dir, ResilienceConfig{}).(CacheLocker); !ok {
		t.Error("resilient DirStore lost its locker")
	}
	if _, ok := NewResilientStore(newLocklessStore(t, t.TempDir()), ResilienceConfig{}).(CacheLocker); ok {
		t.Error("resilient lockless store invented a locker")
	}
}
