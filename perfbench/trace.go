package main

import (
	"context"
	"errors"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/consolidation"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/sim"
)

// span is one timed call into a layer. Offsets are from the pass start.
type span struct {
	name       string
	start, end time.Duration
	parent     int32 // enclosing span; -1 for the pass itself
	bytes      int64
	failed     bool
	// async spans run beside their parent rather than blocking it (the
	// store's background publishes), so they are not subtracted from
	// the parent's self time.
	async bool
}

// tracer records the spans of one pass in memory. Span 0 is the pass.
// Spans opened with do nest on the driving goroutine; leaf spans from
// other goroutines attach to the innermost span open at their start.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	cur   atomic.Int32
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: []span{{name: "bench.pass", parent: -1}}}
}

func (t *tracer) finish() { t.spans[0].end = time.Since(t.t0) }

// begin opens a span under parent and returns its index.
func (t *tracer) begin(name string, parent int32) int32 {
	at := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: at, parent: parent})
	return int32(len(t.spans) - 1)
}

// stop closes span i.
func (t *tracer) stop(i int32, failed bool) {
	at := time.Since(t.t0)
	t.mu.Lock()
	t.spans[i].end = at
	t.spans[i].failed = failed
	t.mu.Unlock()
}

// do runs f inside a span nested under the driving goroutine's
// innermost open span. A nil tracer just runs f.
func (t *tracer) do(name string, f func() error) error {
	if t == nil {
		return f()
	}
	parent := t.cur.Load()
	i := t.begin(name, parent)
	t.cur.Store(i)
	err := f()
	t.stop(i, err != nil)
	t.cur.Store(parent)
	return err
}

// leaf records a finished call that started at start, under the
// innermost span open on the driving goroutine.
func (t *tracer) leaf(name string, start time.Time, bytes int64, failed, async bool) {
	t.leafIn(t.cur.Load(), name, start, bytes, failed, async)
}

// leafIn records a finished call under parent.
func (t *tracer) leafIn(parent int32, name string, start time.Time, bytes int64, failed, async bool) {
	end := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: start.Sub(t.t0), end: end,
		parent: parent, bytes: bytes, failed: failed, async: async})
	t.mu.Unlock()
}

// layerOf is the layer a span name belongs to: its prefix.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes returns each span's duration minus the union of its
// blocking children's intervals.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i := 1; i < len(spans); i++ {
		if !spans[i].async {
			kids[spans[i].parent] = append(kids[spans[i].parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		var ivs [][2]time.Duration
		for _, k := range kids[i] {
			ivs = append(ivs, [2]time.Duration{max(spans[k].start, s.start), min(spans[k].end, s.end)})
		}
		self[i] = s.end - s.start - unionLen(ivs)
	}
	return self
}

// unionLen is the total length covered by intervals.
func unionLen(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, lo, hi time.Duration
	open := false
	for _, iv := range ivs {
		if iv[1] <= iv[0] {
			continue
		}
		if !open || iv[0] > hi {
			if open {
				total += hi - lo
			}
			lo, hi, open = iv[0], iv[1], true
			continue
		}
		hi = max(hi, iv[1])
	}
	if open {
		total += hi - lo
	}
	return total
}

// under reports whether span i has an ancestor named name.
func under(spans []span, i int, name string) bool {
	for p := spans[i].parent; p >= 0; p = spans[p].parent {
		if spans[p].name == name {
			return true
		}
	}
	return false
}

// timedStore times every call into the persistent store it forwards to.
// It keeps the store's CacheLocker so the cache's cross-process
// singleflight stays on.
type timedStore struct {
	inner *sim.DirStore
	tr    *tracer
}

var _ sim.CacheLocker = (*timedStore)(nil)

func (s *timedStore) Get(name string) ([]byte, error) {
	t0 := time.Now()
	b, err := s.inner.Get(name)
	s.tr.leaf("store.get", t0, int64(len(b)), err != nil && !errors.Is(err, sim.ErrArtefactNotFound), false)
	return b, err
}

// Put runs on the resilient store's background publisher.
func (s *timedStore) Put(name string, data []byte) error {
	t0 := time.Now()
	err := s.inner.Put(name, data)
	s.tr.leaf("store.put", t0, int64(len(data)), err != nil, true)
	return err
}

func (s *timedStore) Quarantine(name, reason string) error {
	t0 := time.Now()
	err := s.inner.Quarantine(name, reason)
	s.tr.leaf("store.quarantine", t0, 0, err != nil, false)
	return err
}

func (s *timedStore) Lock(ctx context.Context, name string) (func(), error) {
	t0 := time.Now()
	unlock, err := s.inner.Lock(ctx, name)
	s.tr.leaf("store.lock", t0, 0, err != nil, false)
	return unlock, err
}

// timedPolicy times each planning round of the policy it forwards to.
// It implements ViewPolicy, so the cluster engine keeps its incremental
// view fast path.
type timedPolicy struct {
	inner consolidation.ViewPolicy
	tr    *tracer
}

var _ consolidation.ViewPolicy = (*timedPolicy)(nil)

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Plan(hosts []consolidation.HostState, cfg consolidation.Config) (*consolidation.Plan, error) {
	t0 := time.Now()
	plan, err := p.inner.Plan(hosts, cfg)
	p.tr.leaf("consolidation.plan", t0, 0, err != nil, false)
	return plan, err
}

func (p *timedPolicy) PlanView(v *consolidation.View, cfg consolidation.Config) (*consolidation.Plan, error) {
	t0 := time.Now()
	plan, err := p.inner.PlanView(v, cfg)
	p.tr.leaf("consolidation.plan", t0, 0, err != nil, false)
	return plan, err
}

// wrapPolicy puts the planning timer in front of a compiled cluster
// timeline's policy.
func wrapPolicy(c *scenario.Compiled, tr *tracer) {
	if c.Cluster == nil {
		return
	}
	if vp, ok := c.Cluster.Config.Policy.(consolidation.ViewPolicy); ok {
		c.Cluster.Config.Policy = &timedPolicy{inner: vp, tr: tr}
	}
}

// phaseWriter splits a service.Exec call into its run and its
// rendering: Exec writes the block header before it runs the scenario
// and the result lines after, so the first two writes bound the run.
type phaseWriter struct {
	w      io.Writer
	tr     *tracer
	run    string
	writes int
	open   int32
	parent int32
}

func (p *phaseWriter) Write(b []byte) (int, error) {
	n, err := p.w.Write(b)
	p.writes++
	switch p.writes {
	case 1:
		p.parent = p.tr.cur.Load()
		p.open = p.tr.begin(p.run, p.parent)
		p.tr.cur.Store(p.open)
	case 2:
		p.tr.stop(p.open, false)
		p.open = p.tr.begin("report.render", p.parent)
		p.tr.cur.Store(p.open)
	}
	return n, err
}

func (p *phaseWriter) finish(err error) {
	if p.writes > 0 {
		p.tr.stop(p.open, err != nil)
		p.tr.cur.Store(p.parent)
	}
}

// execScenario runs one compiled scenario through service.Exec, the path
// wavm3scen and wavm3d share. Traced, it records the call and its run
// and render phases.
func execScenario(tr *tracer, w io.Writer, c *scenario.Compiled, cache *sim.Cache) (*service.ExecResult, error) {
	if tr == nil {
		return service.Exec(context.Background(), w, c, workers, cache)
	}
	var res *service.ExecResult
	err := tr.do("service.exec", func() error {
		run := "experiments.run"
		if c.Cluster != nil || c.Plan != nil {
			run = "cluster.run"
		}
		pw := &phaseWriter{w: w, tr: tr, run: run}
		var err error
		res, err = service.Exec(context.Background(), pw, c, workers, cache)
		pw.finish(err)
		return err
	})
	return res, err
}

// resilience is the store policy the commands build from their default
// flags (cliflags.Cache).
func resilience() sim.ResilienceConfig {
	return sim.ResilienceConfig{
		OpTimeout:        2 * time.Second,
		Retries:          2,
		BreakerThreshold: 5,
		BreakerCooldown:  time.Second,
		AsyncPublish:     true,
	}
}

// newStoreCache builds a memory cache over the directory store the way
// the commands do; traced, the store sits behind the timing wrapper.
func newStoreCache(ds *sim.DirStore, tr *tracer) *sim.Cache {
	var store sim.CacheStore = ds
	if tr != nil {
		store = &timedStore{inner: ds, tr: tr}
	}
	return sim.NewCacheWithStore(0, sim.NewResilientStore(store, resilience()))
}
