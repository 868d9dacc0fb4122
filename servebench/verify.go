package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	rs "radiusstep"
	"radiusstep/internal/baseline"
	"radiusstep/internal/check"
	"radiusstep/internal/server"
)

// reference answers queries on an independently regenerated copy of a
// workload's graph with sequential Dijkstra.
type reference struct {
	g    *rs.Graph
	dist map[int64][]float64
	// sorted holds each source's distances in ascending order, for
	// checking that a top-k answer is the k nearest.
	sorted map[int64][]float64
}

// newReference regenerates cfg's graph and solves every source in srcs.
func newReference(cfg server.GraphConfig, srcs []int64) (*reference, error) {
	g, err := rs.GenerateByName(cfg.Gen, cfg.N, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if cfg.Weights > 0 {
		g = rs.WithUniformIntWeights(g, 1, cfg.Weights, cfg.Seed+1)
	}
	ref := &reference{g: g, dist: make(map[int64][]float64), sorted: make(map[int64][]float64)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan int64)
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				d := baseline.Dijkstra(g, rs.Vertex(s))
				sorted := slices.Clone(d)
				slices.Sort(sorted)
				mu.Lock()
				ref.dist[s], ref.sorted[s] = d, sorted
				mu.Unlock()
			}
		}()
	}
	for _, s := range srcs {
		if s < 0 || s >= int64(g.NumVertices()) {
			close(work)
			wg.Wait()
			return nil, fmt.Errorf("source %d out of range [0,%d)", s, g.NumVertices())
		}
		work <- s
	}
	close(work)
	wg.Wait()
	return ref, nil
}

// answerSources lists the distinct sources the stored answers need.
func answerSources(answers map[answerKey]storedAnswer) []int64 {
	seen := make(map[int64]bool)
	var out []int64
	for _, a := range answers {
		for _, s := range a.req.sources {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	slices.Sort(out)
	return out
}

type vertexDistance struct {
	Vertex   int64   `json:"vertex"`
	Distance float64 `json:"distance"`
}

type distancesAnswer struct {
	Source    int64            `json:"source"`
	Cached    bool             `json:"cached"`
	Reached   int              `json:"reached"`
	Distances []float64        `json:"distances"`
	Nearest   []vertexDistance `json:"nearest"`
	Targets   []vertexDistance `json:"targets"`
	Error     string           `json:"error"`
}

type routeAnswer struct {
	Source   int64   `json:"source"`
	Target   int64   `json:"target"`
	Distance float64 `json:"distance"`
	Hops     int     `json:"hops"`
	Path     []int64 `json:"path"`
	Cached   bool    `json:"cached"`
}

type batchAnswer struct {
	Results []distancesAnswer `json:"results"`
}

// finite maps +Inf to the JSON sentinel -1, as the server does.
func finite(d float64) float64 {
	if math.IsInf(d, 1) {
		return -1
	}
	return d
}

// check verifies one response body against the reference. It also
// reports whether the answer came from the cache (every part of it, for
// a batch).
func (ref *reference) check(r request, body []byte) (cached bool, err error) {
	switch r.kind {
	case kindRoute:
		var a routeAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return false, fmt.Errorf("decode route: %w", err)
		}
		return a.Cached, ref.checkRoute(r, a)
	case kindBatch:
		var a batchAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return false, fmt.Errorf("decode batch: %w", err)
		}
		if len(a.Results) != len(r.sources) {
			return false, fmt.Errorf("batch: %d results for %d sources", len(a.Results), len(r.sources))
		}
		cached = true
		for i, res := range a.Results {
			if err := ref.checkDistances(r, r.sources[i], res); err != nil {
				return false, fmt.Errorf("batch result %d: %w", i, err)
			}
			cached = cached && res.Cached
		}
		return cached, nil
	default:
		var a distancesAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return false, fmt.Errorf("decode distances: %w", err)
		}
		return a.Cached, ref.checkDistances(r, r.sources[0], a)
	}
}

func (ref *reference) checkDistances(r request, src int64, a distancesAnswer) error {
	want := ref.dist[src]
	switch {
	case a.Error != "":
		return fmt.Errorf("source %d: error %q", src, a.Error)
	case a.Source != src:
		return fmt.Errorf("answer for source %d, asked %d", a.Source, src)
	}
	reached := 0
	for _, d := range want {
		if !math.IsInf(d, 1) {
			reached++
		}
	}
	if a.Reached != reached {
		return fmt.Errorf("source %d: reached %d, want %d", src, a.Reached, reached)
	}
	switch r.kind {
	case kindVector:
		if len(a.Distances) != len(want) {
			return fmt.Errorf("source %d: %d distances for %d vertices", src, len(a.Distances), len(want))
		}
		dist := make([]float64, len(a.Distances))
		for v, d := range a.Distances {
			dist[v] = d
			if d == -1 {
				dist[v] = math.Inf(1)
			}
			if dist[v] != want[v] {
				return fmt.Errorf("source %d: dist[%d] = %v, want %v", src, v, d, finite(want[v]))
			}
		}
		if err := check.VerifyDistances(ref.g, rs.Vertex(src), dist); err != nil {
			return fmt.Errorf("source %d: %w", src, err)
		}
	case kindTargets:
		if len(a.Targets) != len(r.targets) {
			return fmt.Errorf("source %d: %d targets answered, %d asked", src, len(a.Targets), len(r.targets))
		}
		for i, t := range a.Targets {
			if t.Vertex != r.targets[i] || t.Distance != finite(want[t.Vertex]) {
				return fmt.Errorf("source %d: target %d = %v, want %d = %v", src, t.Vertex, t.Distance, r.targets[i], finite(want[r.targets[i]]))
			}
		}
	default: // top-k, alone or in a batch
		k := min(r.topK, reached)
		if len(a.Nearest) != k {
			return fmt.Errorf("source %d: %d nearest, want %d", src, len(a.Nearest), k)
		}
		seen := make(map[int64]bool, k)
		for i, nv := range a.Nearest {
			switch {
			case nv.Vertex < 0 || nv.Vertex >= int64(len(want)) || seen[nv.Vertex]:
				return fmt.Errorf("source %d: nearest[%d] vertex %d invalid or repeated", src, i, nv.Vertex)
			case nv.Distance != want[nv.Vertex]:
				return fmt.Errorf("source %d: nearest vertex %d at %v, want %v", src, nv.Vertex, nv.Distance, want[nv.Vertex])
			case i > 0 && nv.Distance < a.Nearest[i-1].Distance:
				return fmt.Errorf("source %d: nearest not in nondecreasing order at %d", src, i)
			case nv.Distance != ref.sorted[src][i]:
				return fmt.Errorf("source %d: nearest[%d] at %v, but the %d-th smallest distance is %v", src, i, nv.Distance, i+1, ref.sorted[src][i])
			}
			seen[nv.Vertex] = true
		}
	}
	return nil
}

// checkRoute verifies the distance against the reference and the path
// edge by edge: it must run from source to target over existing arcs
// whose lightest weights sum to exactly that distance.
func (ref *reference) checkRoute(r request, a routeAnswer) error {
	src, dst := r.sources[0], r.target
	want := finite(ref.dist[src][dst])
	switch {
	case a.Source != src || a.Target != dst:
		return fmt.Errorf("route answer %d->%d, asked %d->%d", a.Source, a.Target, src, dst)
	case a.Distance != want:
		return fmt.Errorf("route %d->%d: distance %v, want %v", src, dst, a.Distance, want)
	case want == -1:
		return nil
	case len(a.Path) == 0 || a.Path[0] != src || a.Path[len(a.Path)-1] != dst || a.Hops != len(a.Path)-1:
		return fmt.Errorf("route %d->%d: path %v with %d hops has the wrong ends", src, dst, a.Path, a.Hops)
	}
	sum := 0.0
	for i := 1; i < len(a.Path); i++ {
		u, v := a.Path[i-1], a.Path[i]
		if u < 0 || u >= int64(ref.g.NumVertices()) {
			return fmt.Errorf("route %d->%d: vertex %d out of range", src, dst, u)
		}
		w := math.Inf(1)
		adj, ws := ref.g.Neighbors(rs.Vertex(u))
		for j, x := range adj {
			if int64(x) == v {
				w = min(w, ws[j])
			}
		}
		if math.IsInf(w, 1) {
			return fmt.Errorf("route %d->%d: no arc %d->%d", src, dst, u, v)
		}
		sum += w
	}
	if sum != a.Distance {
		return fmt.Errorf("route %d->%d: path weighs %v, distance says %v", src, dst, sum, a.Distance)
	}
	return nil
}
