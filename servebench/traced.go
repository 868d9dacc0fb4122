package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	rs "radiusstep"
	"radiusstep/internal/server"
)

// fullBackend is the production backend's interface set: Backend plus
// every optional extension the server type-asserts for.
type fullBackend interface {
	server.Backend
	server.ContextBackend
	server.TracingBackend
	server.RoutingBackend
	server.VectorRouter
	server.LandmarkBackend
}

// timedBackend is the traced run's timing decorator. It implements
// exactly the interface set of the backend it wraps, so the server takes
// the same paths (context solves, cache-first routes, landmark routes)
// as it does untraced. Full solves run through the inner backend's
// DistancesTraced, which gives the step, substep, frontier and pool
// splits; that path has no cancellation, which a benchmark never uses.
type timedBackend struct {
	inner fullBackend
	rec   *recorder
}

// wrapBackend decorates b, which must implement the full interface set.
func wrapBackend(b server.Backend, rec *recorder) (*timedBackend, error) {
	fb, ok := b.(fullBackend)
	if !ok {
		return nil, fmt.Errorf("backend %T lacks an optional interface the decorator implements", b)
	}
	return &timedBackend{inner: fb, rec: rec}, nil
}

func (b *timedBackend) NumVertices() int { return b.inner.NumVertices() }

func (b *timedBackend) Distances(src rs.Vertex, engine rs.Engine) ([]float64, rs.Stats, error) {
	return b.solve(context.Background(), src, engine)
}

func (b *timedBackend) DistancesCtx(ctx context.Context, src rs.Vertex, engine rs.Engine) ([]float64, rs.Stats, error) {
	return b.solve(ctx, src, engine)
}

func (b *timedBackend) solve(ctx context.Context, src rs.Vertex, engine rs.Engine) ([]float64, rs.Stats, error) {
	d, st, _, err := b.traced(ctx, src, engine)
	return d, st, err
}

func (b *timedBackend) DistancesTraced(src rs.Vertex, engine rs.Engine) ([]float64, rs.Stats, *rs.Timeline, error) {
	return b.traced(context.Background(), src, engine)
}

func (b *timedBackend) traced(ctx context.Context, src rs.Vertex, engine rs.Engine) ([]float64, rs.Stats, *rs.Timeline, error) {
	t0 := time.Now()
	d, st, tl, err := b.inner.DistancesTraced(src, engine)
	t1 := time.Now()
	spanFrom(ctx).backendCall(t0, t1)
	if err == nil {
		b.rec.addSolve(solveRec{dur: t1.Sub(t0), st: st, tl: tl})
	}
	return d, st, tl, err
}

func (b *timedBackend) RouteCtx(ctx context.Context, src, dst rs.Vertex, engine rs.Engine, prune bool) ([]rs.Vertex, float64, rs.Stats, error) {
	return b.route(ctx, func() ([]rs.Vertex, float64, rs.Stats, error) {
		return b.inner.RouteCtx(ctx, src, dst, engine, prune)
	})
}

func (b *timedBackend) Route(src, dst rs.Vertex, engine rs.Engine, prune bool) ([]rs.Vertex, float64, rs.Stats, error) {
	return b.route(context.Background(), func() ([]rs.Vertex, float64, rs.Stats, error) {
		return b.inner.Route(src, dst, engine, prune)
	})
}

func (b *timedBackend) route(ctx context.Context, call func() ([]rs.Vertex, float64, rs.Stats, error)) ([]rs.Vertex, float64, rs.Stats, error) {
	t0 := time.Now()
	p, d, st, err := call()
	t1 := time.Now()
	spanFrom(ctx).backendCall(t0, t1)
	if err == nil {
		b.rec.addRoute(routeRec{dur: t1.Sub(t0), st: st})
	}
	return p, d, st, err
}

func (b *timedBackend) Path(src, dst rs.Vertex, engine rs.Engine) ([]rs.Vertex, float64, error) {
	return b.inner.Path(src, dst, engine)
}

func (b *timedBackend) PathFromDistances(src, dst rs.Vertex, dist []float64) ([]rs.Vertex, float64, error) {
	return b.inner.PathFromDistances(src, dst, dist)
}

func (b *timedBackend) Landmarks() int { return b.inner.Landmarks() }

func (b *timedBackend) AdoptLandmark(src rs.Vertex, dist []float64) (bool, error) {
	return b.inner.AdoptLandmark(src, dist)
}

type solveRec struct {
	dur time.Duration
	st  rs.Stats
	tl  *rs.Timeline
}

type routeRec struct {
	dur time.Duration
	st  rs.Stats
}

// recorder keeps the traced run's backend calls and request spans in
// memory until the run ends.
type recorder struct {
	mu     sync.Mutex
	solves []solveRec
	routes []routeRec
	spans  map[int]*span
}

func newRecorder() *recorder { return &recorder{spans: make(map[int]*span)} }

// reset drops everything recorded so far (the warm-up).
func (r *recorder) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.solves, r.routes = nil, nil
	r.spans = make(map[int]*span)
}

func (r *recorder) addSolve(s solveRec) {
	r.mu.Lock()
	r.solves = append(r.solves, s)
	r.mu.Unlock()
}

func (r *recorder) addRoute(s routeRec) {
	r.mu.Lock()
	r.routes = append(r.routes, s)
	r.mu.Unlock()
}

func (r *recorder) addSpan(id int, sp *span) {
	r.mu.Lock()
	r.spans[id] = sp
	r.mu.Unlock()
}

// span is one request's timestamps at the handler boundary: entry, the
// last read of the request body, the first backend call's start and the
// last one's end, WriteHeader, and the end of the last Write.
type span struct {
	entry, bodyRead, header, lastWrite time.Time

	mu                 sync.Mutex // backend calls may run on other goroutines
	callStart, callEnd time.Time
	calls              int
}

type spanKey struct{}

func spanFrom(ctx context.Context) *span {
	sp, _ := ctx.Value(spanKey{}).(*span)
	return sp
}

func (sp *span) backendCall(t0, t1 time.Time) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.calls == 0 || t0.Before(sp.callStart) {
		sp.callStart = t0
	}
	if t1.After(sp.callEnd) {
		sp.callEnd = t1
	}
	sp.calls++
}

// spanMiddleware timestamps the requests that carry reqIDHeader: handler
// entry, request-body reads, WriteHeader and each Write. The span rides
// in the request context, which the server hands on to the backend.
func spanMiddleware(h http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.Header.Get(reqIDHeader))
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		sp := &span{entry: time.Now()}
		r = r.WithContext(context.WithValue(r.Context(), spanKey{}, sp))
		r.Body = &timedBody{ReadCloser: r.Body, sp: sp}
		h.ServeHTTP(&timedWriter{ResponseWriter: w, sp: sp}, r)
		rec.addSpan(id, sp)
	})
}

type timedBody struct {
	io.ReadCloser
	sp *span
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.sp.bodyRead = time.Now()
	return n, err
}

type timedWriter struct {
	http.ResponseWriter
	sp *span
}

func (w *timedWriter) WriteHeader(code int) {
	if w.sp.header.IsZero() {
		w.sp.header = time.Now()
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *timedWriter) Write(p []byte) (int, error) {
	if w.sp.header.IsZero() {
		w.sp.header = time.Now()
	}
	n, err := w.ResponseWriter.Write(p)
	w.sp.lastWrite = time.Now()
	return n, err
}

// setupTimes splits a traced set-up by call.
type setupTimes struct {
	generate, preprocess, landmarks time.Duration
	shortcuts                       int64
}

// setupTraced builds the graph the way the registry's buildEntry does
// for a gen spec, timing each call, and publishes it with its backend
// wrapped in the timing decorator.
func setupTraced(cfg server.GraphConfig, rec *recorder) (*server.Registry, setupTimes, error) {
	var t setupTimes
	opt := rs.Options{Rho: cfg.Rho, K: cfg.K, Delta: cfg.Delta}
	if cfg.Heuristic != "" || cfg.Engine != "" {
		return nil, t, fmt.Errorf("traced set-up supports only the default heuristic and engine")
	}
	t0 := time.Now()
	g, err := rs.GenerateByName(cfg.Gen, cfg.N, cfg.Seed)
	if err != nil {
		return nil, t, err
	}
	if cfg.Weights > 0 {
		g = rs.WithUniformIntWeights(g, 1, cfg.Weights, cfg.Seed+1)
	}
	t1 := time.Now()
	solver, err := rs.NewSolver(g, opt)
	if err != nil {
		return nil, t, err
	}
	t2 := time.Now()
	if cfg.Landmarks > 0 {
		if _, err := solver.BuildLandmarks(cfg.Landmarks, rs.LandmarksFarthest); err != nil {
			return nil, t, err
		}
	}
	t3 := time.Now()
	t.generate, t.preprocess, t.landmarks = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)

	source := fmt.Sprintf("gen:%s,n=%d,seed=%d", cfg.Gen, cfg.N, cfg.Seed)
	entry := server.NewSolverEntry(cfg.Name, solver, opt.WithDefaults(), source, t.preprocess)
	entry.Info.Format = "gen"
	entry.Info.Landmarks = solver.Landmarks()
	t.shortcuts = entry.Info.ShortcutsAdded
	tb, err := wrapBackend(entry.Backend, rec)
	if err != nil {
		return nil, t, err
	}
	entry.Backend = tb
	reg := server.NewRegistry()
	if err := reg.Add(entry); err != nil {
		return nil, t, err
	}
	return reg, t, nil
}
