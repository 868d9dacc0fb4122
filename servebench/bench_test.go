package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	rs "radiusstep"
	"radiusstep/internal/server"
)

// testConfig is a small graph of the same families the workloads use.
func testConfig(t *testing.T) server.GraphConfig {
	t.Helper()
	cfg, err := server.ParseGraphSpec(graphName + "=gen=rmat,n=3000,weights=100,rho=32,landmarks=2,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestDecoratorHasExactlyTheBackendsInterfaces(t *testing.T) {
	e, err := server.BuildEntry(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := wrapBackend(e.Backend, newRecorder())
	if err != nil {
		t.Fatal(err)
	}
	var inner, outer server.Backend = e.Backend, wrapped
	checks := []struct {
		name string
		has  func(server.Backend) bool
	}{
		{"ContextBackend", func(b server.Backend) bool { _, ok := b.(server.ContextBackend); return ok }},
		{"RoutingBackend", func(b server.Backend) bool { _, ok := b.(server.RoutingBackend); return ok }},
		{"VectorRouter", func(b server.Backend) bool { _, ok := b.(server.VectorRouter); return ok }},
		{"LandmarkBackend", func(b server.Backend) bool { _, ok := b.(server.LandmarkBackend); return ok }},
		{"TracingBackend", func(b server.Backend) bool { _, ok := b.(server.TracingBackend); return ok }},
	}
	for _, c := range checks {
		if c.has(inner) != c.has(outer) {
			t.Errorf("%s: wrapped backend has it %v, decorator %v", c.name, c.has(inner), c.has(outer))
		}
	}
}

// plainBackend implements Backend and none of the optional interfaces.
type plainBackend struct{}

func (plainBackend) NumVertices() int { return 1 }
func (plainBackend) Distances(rs.Vertex, rs.Engine) ([]float64, rs.Stats, error) {
	return []float64{0}, rs.Stats{}, nil
}
func (plainBackend) Path(rs.Vertex, rs.Vertex, rs.Engine) ([]rs.Vertex, float64, error) {
	return []rs.Vertex{0}, 0, nil
}

func TestDecoratorRefusesASmallerInterfaceSet(t *testing.T) {
	if _, err := wrapBackend(plainBackend{}, newRecorder()); err == nil {
		t.Fatal("wrapping a Backend without the optional interfaces succeeded")
	}
}

func TestTracedSolvesAreByteIdentical(t *testing.T) {
	e, err := server.BuildEntry(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	wrapped, err := wrapBackend(e.Backend, rec)
	if err != nil {
		t.Fatal(err)
	}
	plain := e.Backend.(server.ContextBackend)
	for _, src := range []rs.Vertex{0, 17, 1234} {
		want, _, err := plain.DistancesCtx(context.Background(), src, rs.EngineAuto)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := wrapped.DistancesCtx(context.Background(), src, rs.EngineAuto)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("source %d: %d distances, want %d", src, len(got), len(want))
		}
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Fatalf("source %d: traced dist[%d] = %v, untraced %v", src, v, got[v], want[v])
			}
		}
	}
	if len(rec.solves) != 3 || rec.solves[0].tl == nil {
		t.Fatalf("recorder kept %d solves (first timeline %v), want 3 with timelines", len(rec.solves), rec.solves[0].tl)
	}
}

// TestTracedServingIsByteIdentical sends the same requests to an
// untraced server and to one set up the traced way, behind the span
// middleware, and compares the response bodies byte for byte.
func TestTracedServingIsByteIdentical(t *testing.T) {
	cfg := testConfig(t)
	plainReg := server.NewRegistry()
	if err := plainReg.LoadConfig(cfg); err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	tracedReg, _, err := setupTraced(cfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	plainSrv := httptest.NewServer(server.New(plainReg, server.Config{CacheBytes: 1 << 20}).Handler())
	defer plainSrv.Close()
	tracedSrv := httptest.NewServer(spanMiddleware(server.New(tracedReg, server.Config{CacheBytes: 1 << 20}).Handler(), rec))
	defer tracedSrv.Close()

	reqs := []request{
		vectorRequest(3), vectorRequest(3), topKRequest(9, 5), targetsRequest(11, []int64{0, 1, 2}),
		// No duplicate in the batch: whether a repeated source joins the
		// first one's solve or hits the cache it filled is a race, and
		// the answer's "cached" flag shows which.
		routeRequest(9, 40), routeRequest(12, 7), batchRequest([]int64{4, 5, 6}, 3),
	}
	post := func(base string, i int, r request) []byte {
		hr, err := http.NewRequest(http.MethodPost, base+r.path, bytes.NewReader(r.body))
		if err != nil {
			t.Fatal(err)
		}
		hr.Header.Set(reqIDHeader, "1")
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, err %v: %s", i, resp.StatusCode, err, b)
		}
		return b
	}
	for i, r := range reqs {
		want, got := post(plainSrv.URL, i, r), post(tracedSrv.URL, i, r)
		if !bytes.Equal(got, want) {
			t.Errorf("request %d (%s): traced body differs:\n got %.200s\nwant %.200s", i, r.kind, got, want)
		}
	}
	if len(rec.spans) == 0 || len(rec.solves) == 0 || len(rec.routes) == 0 {
		t.Errorf("traced server recorded %d spans, %d solves, %d routes", len(rec.spans), len(rec.solves), len(rec.routes))
	}
}

// TestCheckerRejectsWrongAnswers feeds the answer checker correct
// answers from a real server and then corrupted copies of them.
func TestCheckerRejectsWrongAnswers(t *testing.T) {
	cfg := testConfig(t)
	reg := server.NewRegistry()
	if err := reg.LoadConfig(cfg); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(reg, server.Config{CacheBytes: 1 << 20}).Handler())
	defer ts.Close()
	reqs := []request{vectorRequest(2), topKRequest(2, 6), targetsRequest(2, []int64{5, 6}), routeRequest(2, 77), batchRequest([]int64{2, 2}, 4)}
	ref, err := newReference(cfg, []int64{2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		resp, err := http.Post(ts.URL+r.path, "application/json", bytes.NewReader(r.body))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.check(r, body); err != nil {
			t.Fatalf("%s: correct answer rejected: %v", r.kind, err)
		}
		// Prefix a 9 to the first distance of the answer, or to the
		// second entry of a full vector: the value changes, or the JSON
		// breaks where it was -1.
		field := `"distance":`
		if r.kind == kindVector {
			field = `"distances":[`
		}
		i := strings.Index(string(body), field)
		if i < 0 {
			t.Fatalf("%s: no %s in %s", r.kind, field, body)
		}
		i += len(field)
		if r.kind == kindVector {
			i += strings.Index(string(body[i:]), ",") + 1
		}
		bad := append(append(append([]byte{}, body[:i]...), '9'), body[i:]...)
		if _, err := ref.check(r, bad); err == nil {
			t.Errorf("%s: corrupted answer accepted: %.200s", r.kind, bad)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 30)
	for i := range xs {
		xs[i] = float64(i)
	}
	v, p := tailPercentile(xs)
	if v != 19 || math.Abs(p-200.0/3) > 1e-9 {
		t.Fatalf("tail of 30 samples = %v at p%v, want 19 at p66.67", v, p)
	}
	if v, p := tailPercentile(xs[:5]); v != 2 || p != 50 {
		t.Fatalf("tail of 5 samples = %v at p%v, want the median at p50", v, p)
	}
}

func TestPlansKeepTheirDesign(t *testing.T) {
	const n, count = 100000, 2000
	warm, timed := planRoadCold(rand.New(rand.NewPCG(1, 2)), n, count)
	seen := make(map[int64]bool)
	for _, r := range append(warm, timed...) {
		if seen[r.sources[0]] {
			t.Fatalf("road-cold asks source %d twice", r.sources[0])
		}
		seen[r.sources[0]] = true
	}
	if len(warm) != roadColdWarm || len(timed) != count {
		t.Fatalf("road-cold plan has %d warm-up and %d timed requests", len(warm), len(timed))
	}

	// Half the rmat-mixed routes reuse the latest solved source, so
	// route cache hits do not hinge on the Zipf draws alone.
	_, timed = planRmatMixed(rand.New(rand.NewPCG(1, 2)), n, count)
	var routes, followUps int
	var last int64 = -1
	for _, r := range timed {
		switch r.kind {
		case kindRoute:
			routes++
			if r.sources[0] == last {
				followUps++
			}
		default:
			last = r.sources[0]
		}
	}
	if routes == 0 || followUps < routes/3 {
		t.Fatalf("%d of %d routes follow up on the latest solved source, want about half", followUps, routes)
	}
}

func TestPhaseWindowUsesLeastContendedSlices(t *testing.T) {
	s := func(from, to int, steal float64) hostSlice {
		return hostSlice{from: time.Duration(from) * time.Second, to: time.Duration(to) * time.Second, steal: steal}
	}
	slices := []hostSlice{s(0, 1, 0), s(1, 2, 0.3), s(2, 3, 0.01), s(3, 4, 0.1), s(4, 5, 0)}
	for _, c := range []struct {
		want time.Duration
		used []bool // per slice
	}{
		{3 * time.Second, []bool{true, false, true, false, true}},
		// Too little quiet time: the least-contended of the rest too.
		{4 * time.Second, []bool{true, false, true, true, true}},
	} {
		w := newPhaseWindow(slices, c.want)
		if w.seconds() != c.want.Seconds() {
			t.Errorf("want %v: window of %v s", c.want, w.seconds())
		}
		for i, sl := range slices {
			for _, at := range []time.Duration{sl.from, sl.to - time.Millisecond} {
				if got := w.usedAt(at); got != c.used[i] {
					t.Errorf("want %v: usedAt(%v) = %v, want %v", c.want, at, got, c.used[i])
				}
			}
		}
		if w.usedAt(6 * time.Second) {
			t.Errorf("want %v: an offset past the phase is used", c.want)
		}
	}
}
