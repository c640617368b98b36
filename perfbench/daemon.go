package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/sim"
)

const (
	// daemonHosts is the largest cluster daemon-warm requests.
	daemonHosts = 16
	// passRequests is the least number of requests in one pass, so that
	// p99 has ten samples beyond it.
	passRequests = 1000
	// spanHeader carries a client request's span to the traced handler.
	spanHeader = "X-Perfbench-Span"
)

// request is one POST /v1/runs: by library name, or with the spec body.
type request struct {
	name string
	body []byte // nil for ?name=
}

// daemonWarm drives an in-process wavm3d server on loopback, closed loop
// from `workers` clients, over every library scenario of daemonHosts
// hosts or fewer in seed-shuffled order; 1 in 4 requests posts the spec
// JSON. The server's memory cache is warmed during set-up.
type daemonWarm struct {
	seed     int64
	names    []string
	bodies   map[string][]byte
	specs    map[string]*scenario.Spec
	expected map[string][]byte // service.Exec output per scenario
	reqs     []request         // one pass, the same every pass

	cache   *sim.Cache
	srv     *service.Server
	url     string
	served  chan error
	traced  *http.Server // the same handler behind span recording
	tracedU string
	tServed chan error
	spans   *spanHandler
	client  *http.Client

	rejected int // 429 answers seen by traced passes
}

func (w *daemonWarm) setup() error {
	if err := w.stop(); err != nil {
		return err
	}
	byName, infos, err := librarySpecs()
	if err != nil {
		return err
	}
	w.names = nil
	w.bodies = map[string][]byte{}
	w.specs = map[string]*scenario.Spec{}
	for _, in := range infos {
		if in.Cluster > daemonHosts {
			continue
		}
		b, err := os.ReadFile(in.File)
		if err != nil {
			return err
		}
		w.names = append(w.names, in.Name)
		w.bodies[in.Name] = b
		w.specs[in.Name] = byName[in.Name]
	}

	w.cache = sim.NewCache(0)
	w.srv, err = service.New(service.Config{
		ScenarioDir: "scenarios",
		Workers:     workers,
		Cache:       w.cache,
		Logger:      log.New(io.Discard, "", 0),
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.url = "http://" + ln.Addr().String()
	w.served = make(chan error, 1)
	go func() { w.served <- w.srv.Serve(ln) }()
	w.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: workers, MaxConnsPerHost: workers, DisableCompression: true,
	}}

	// Warm the cache and record what every scenario must answer.
	w.expected = map[string][]byte{}
	for _, name := range w.names {
		c, err := w.specs[name].Compile()
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if _, err := service.Exec(context.Background(), &buf, c, workers, w.cache); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		w.expected[name] = buf.Bytes()
	}

	rng := rand.New(rand.NewSource(w.seed))
	w.reqs = w.reqs[:0]
	for len(w.reqs) < passRequests {
		for _, i := range rng.Perm(len(w.names)) {
			r := request{name: w.names[i]}
			if rng.Intn(4) == 0 {
				r.body = w.bodies[r.name]
			}
			w.reqs = append(w.reqs, r)
		}
	}
	resp, err := w.client.Get(w.url + "/readyz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("readyz answered %d", resp.StatusCode)
	}
	return nil
}

// stop shuts the servers of the previous set-up down and waits for them.
func (w *daemonWarm) stop() error {
	var errs []error
	if w.srv != nil {
		errs = append(errs, w.srv.Shutdown(10*time.Second))
		if err := <-w.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		w.srv = nil
	}
	if w.traced != nil {
		errs = append(errs, w.traced.Shutdown(context.Background()))
		if err := <-w.tServed; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		w.traced = nil
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	return errors.Join(errs...)
}

func (w *daemonWarm) close() error { return w.stop() }

// spanHandler records the server side of each traced request as a child
// of the client's span.
type spanHandler struct {
	next http.Handler
	tr   atomic.Pointer[tracer]
}

func (h *spanHandler) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	parent, err := strconv.Atoi(r.Header.Get(spanHeader))
	if tr == nil || err != nil {
		h.next.ServeHTTP(rw, r)
		return
	}
	t0 := time.Now()
	h.next.ServeHTTP(rw, r)
	tr.leafIn(int32(parent), "service.handler", t0, 0, false, false)
}

// tracedURL starts, once, a second listener serving the same daemon
// handler behind span recording.
func (w *daemonWarm) tracedURL() (string, error) {
	if w.traced != nil {
		return w.tracedU, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	w.spans = &spanHandler{next: w.srv.Handler()}
	w.traced = &http.Server{Handler: w.spans}
	w.tracedU = "http://" + ln.Addr().String()
	w.tServed = make(chan error, 1)
	go func() { w.tServed <- w.traced.Serve(ln) }()
	return w.tracedU, nil
}

// target is the request's path and query.
func (r request) target() string {
	if r.body == nil {
		return "/v1/runs?name=" + url.QueryEscape(r.name)
	}
	return "/v1/runs"
}

func (w *daemonWarm) pass(tr *tracer) (*passResult, error) {
	base := w.url
	if tr != nil {
		var err error
		if base, err = w.tracedURL(); err != nil {
			return nil, err
		}
		w.spans.tr.Store(tr)
		defer w.spans.tr.Store(nil)
	}
	before := w.cache.Snapshot()
	n := len(w.reqs)
	lat := make([]time.Duration, n)
	sums := make([][32]byte, n)
	bad := make([]bool, n)
	var rejected atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup

	t0 := time.Now()
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				var sp int32
				if tr != nil {
					sp = tr.begin("http.request", 0)
				}
				s := time.Now()
				status, body, err := w.do(base, w.reqs[i], sp, tr != nil)
				lat[i] = time.Since(s)
				if status == http.StatusTooManyRequests {
					rejected.Add(1)
				}
				bad[i] = err != nil || status != http.StatusOK || !bytes.Equal(body, w.expected[w.reqs[i].name])
				if bad[i] {
					fmt.Fprintf(os.Stderr, "perfbench: %s: status %d, err %v\n", w.reqs[i].name, status, err)
				}
				sums[i] = sha256.Sum256(body)
				if tr != nil {
					tr.stop(sp, bad[i])
				}
			}
		}()
	}
	wg.Wait()
	p := &passResult{wall: time.Since(t0), ops: n, lat: lat}
	for _, b := range bad {
		if b {
			p.failed++
		}
	}
	all := make([]byte, 0, 32*n)
	for _, s := range sums {
		all = append(all, s[:]...)
	}
	p.digest = sha256.Sum256(all)
	p.cache = w.cache.Snapshot().Delta(before)
	if tr != nil {
		w.rejected += int(rejected.Load())
	}
	return p, nil
}

// do sends one request and reads the whole answer.
func (w *daemonWarm) do(base string, r request, span int32, traced bool) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, base+r.target(), bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	if traced {
		req.Header.Set(spanHeader, strconv.Itoa(int(span)))
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// extras peels one pass's requests apart without the socket: the
// handler through a recorder, then service.Exec alone, then Compile.
func (w *daemonWarm) extras(lm *layerMetrics) error {
	h := w.srv.Handler()
	handlerMS, err := timeCalls(len(w.reqs), func(i int) error {
		r := w.reqs[i]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.target(), bytes.NewReader(r.body)))
		lm.attempted++
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), w.expected[r.name]) {
			lm.failed++
		}
		return nil
	})
	if err != nil {
		return err
	}

	compiled := map[string]*scenario.Compiled{}
	for _, name := range w.names {
		if compiled[name], err = w.specs[name].Compile(); err != nil {
			return err
		}
	}
	var ex exactStats
	execMS, err := timeCalls(len(w.reqs), func(i int) error {
		var buf bytes.Buffer
		name := w.reqs[i].name
		res, err := service.Exec(context.Background(), &buf, compiled[name], workers, w.cache)
		if err != nil {
			return err
		}
		ex.addCluster(res.Cluster)
		lm.attempted++
		if !bytes.Equal(buf.Bytes(), w.expected[name]) {
			lm.failed++
		}
		return nil
	})
	if err != nil {
		return err
	}

	compileMS, err := timeCalls(len(w.reqs), func(i int) error {
		_, err := w.specs[w.reqs[i].name].Compile()
		return err
	})
	if err != nil {
		return err
	}
	var compileSum float64
	for _, ms := range compileMS {
		compileSum += ms
	}
	lm.set("service.handler_ms_p50", median(handlerMS))
	lm.set("service.exec_ms_p50", median(execMS))
	lm.set("scenario.compile_ms", compileSum)
	lm.set("service.rejected", float64(w.rejected))
	lm.setExact(ex)
	return nil
}
