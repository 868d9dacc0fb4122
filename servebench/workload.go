package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"
)

// graphName is the registry name every workload serves its graph under.
const graphName = "g"

// Request kinds, as counted in the generated mix.
const (
	kindTopK    = "distances-topk"
	kindTargets = "distances-targets"
	kindVector  = "distances-vector"
	kindRoute   = "route"
	kindBatch   = "batch"
)

// workload is one traffic mix against one generated graph. The spec is
// an ssspd -graph spec without its seed; the run's --seed is appended.
type workload struct {
	name    string
	spec    string
	cacheMB int64
	// clients is the number of closed-loop load-generator connections:
	// each sends its next request when the previous reply is in.
	clients int
	// limit is the latency limit behind slo_ok_ratio.
	limit time.Duration
	// rssAt is the number of timed requests after which peak_rss_mb is
	// read, so that it reflects the same work in every run however long
	// contention stretched the phase or however fast the program served.
	// A quiet 15-second phase serves somewhat more.
	rssAt int
	// plan draws the warm-up and timed request streams for a graph of
	// n vertices, given how many timed requests to prepare.
	plan func(rng *rand.Rand, n, count int) (warm, timed []request)
	// check asserts the workload's design on the timed phase's
	// /v1/stats delta.
	check func(d statsDelta) error
}

// request is one pre-encoded HTTP request plus what the answer checker
// needs to know about it.
type request struct {
	kind    string
	path    string
	body    []byte
	sources []int64 // one source, or a batch's sources
	topK    int
	targets []int64
	target  int64 // route target
}

// Workloads, in the order BENCHMARK.json lists them. Their client
// counts and latency limits are frozen there too, with the reason each
// workload was chosen.
var workloads = []*workload{
	{
		name:    "road-cold",
		spec:    "gen=road,n=200000,weights=10000,rho=32",
		cacheMB: roadColdCacheMB,
		clients: 1,
		limit:   time.Second,
		rssAt:   50,
		plan:    planRoadCold,
		check: func(d statsDelta) error {
			switch {
			case d.lookups() == 0 || d.hitRatio() != 0:
				return fmt.Errorf("cache hit ratio %v over %d lookups, want 0", d.hitRatio(), d.lookups())
			case d.Coalesced != 0:
				return fmt.Errorf("%d coalesced joins, want 0", d.Coalesced)
			case d.Evictions == 0:
				return fmt.Errorf("no cache evictions: the cache is not full")
			}
			return nil
		},
	},
	{
		name:    "road-hot-vectors",
		spec:    "gen=road,n=200000,weights=10000,rho=32",
		cacheMB: 256,
		// One client: two closed-loop clients settle into a
		// staggered or an overlapping rhythm that persists for the
		// run, so the median jumped between ~15 and ~25 ms from run
		// to run.
		clients: 1,
		limit:   100 * time.Millisecond,
		rssAt:   400,
		plan:    planRoadHotVectors,
		check: func(d statsDelta) error {
			switch {
			case d.Solves != 0:
				return fmt.Errorf("%d solves, want 0", d.Solves)
			case d.lookups() == 0 || d.hitRatio() != 1:
				return fmt.Errorf("cache hit ratio %v over %d lookups, want 1", d.hitRatio(), d.lookups())
			}
			return nil
		},
	},
	{
		name:    "rmat-mixed",
		spec:    "gen=rmat,n=50000,weights=10000,rho=32,landmarks=8",
		cacheMB: rmatCacheMB,
		clients: 1,
		limit:   500 * time.Millisecond,
		rssAt:   250,
		plan:    planRmatMixed,
		check: func(d statsDelta) error {
			switch {
			case d.Evictions == 0:
				return fmt.Errorf("no cache evictions")
			case d.Coalesced == 0:
				return fmt.Errorf("no coalesced joins")
			case d.RouteSolves == 0:
				return fmt.Errorf("no route solves")
			case d.RouteCacheHits == 0:
				return fmt.Errorf("no route cache hits")
			}
			return nil
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// rmat-mixed parameters. The cache holds about a tenth of the hot set,
// so about one lookup in five hits and fills, evictions and hits all
// occur; v flattens the Zipf head so that the hit ratio stays there.
const (
	rmatCacheMB = 4
	rmatHotSet  = 128
	rmatZipfS   = 1.1
	rmatZipfV   = 8
	rmatTopK    = 8
	rmatTargets = 8
	rmatBatch   = 4
	// rmatWarm requests, about three times what the cache holds, bring
	// the cache to its steady state before timing starts.
	rmatWarm = 32
)

// Shares of the rmat-mixed mix, in percent.
const (
	rmatShareTopK    = 40
	rmatShareTargets = 25
	rmatShareRoute   = 20 // the rest are batches
)

const (
	roadTopK = 8
	// road-cold's cache holds two of its ~1.6 MB vectors, and its
	// warm-up solves roadColdWarm sources that the timed stream never
	// asks, so the cache is full and evicting before timing starts and
	// its memory stays flat however many requests the phase serves.
	roadColdCacheMB = 4
	roadColdWarm    = 4
	// roadHotSources is the number of sources road-hot-vectors warms
	// and then requests.
	roadHotSources = 8
)

// planRoadCold draws distinct fresh sources: the timed stream never
// repeats a source, and the warm-up uses roadColdWarm more that it
// never asks.
func planRoadCold(rng *rand.Rand, n, count int) (warm, timed []request) {
	srcs := distinctVertices(rng, n, min(count+roadColdWarm, n))
	for _, s := range srcs[:roadColdWarm] {
		warm = append(warm, topKRequest(s, roadTopK))
	}
	for _, s := range srcs[roadColdWarm:] {
		timed = append(timed, topKRequest(s, roadTopK))
	}
	return warm, timed
}

// planRoadHotVectors warms each hot source once and then asks for the
// full vector of a random hot source on every request.
func planRoadHotVectors(rng *rand.Rand, n, count int) (warm, timed []request) {
	hot := distinctVertices(rng, n, roadHotSources)
	for _, s := range hot {
		warm = append(warm, vectorRequest(s))
	}
	for range count {
		timed = append(timed, vectorRequest(hot[rng.IntN(len(hot))]))
	}
	return warm, timed
}

// planRmatMixed draws Zipf-distributed sources over a fixed hot set and
// mixes top-k, targets, route and batch requests. The warm-up is a
// shorter stream from the same distribution.
func planRmatMixed(rng *rand.Rand, n, count int) (warm, timed []request) {
	hot := distinctVertices(rng, n, rmatHotSet)
	zipf := rand.NewZipf(rng, rmatZipfS, rmatZipfV, rmatHotSet-1)
	src := func() int64 { return hot[zipf.Uint64()] }
	var last int64 // the source of the latest distances or batch request
	draw := func() request {
		switch p := rng.IntN(100); {
		case p < rmatShareTopK:
			last = src()
			return topKRequest(last, rmatTopK)
		case p < rmatShareTopK+rmatShareTargets:
			last = src()
			return targetsRequest(last, randomVertices(rng, n, rmatTargets))
		case p < rmatShareTopK+rmatShareTargets+rmatShareRoute:
			// Half the routes follow up on the latest solved source,
			// as a client asking for a path after its distances
			// would, so the cache-first route path is taken; the
			// other half mostly run landmark-pruned route solves.
			if rng.IntN(2) == 0 {
				return routeRequest(last, rng.Int64N(int64(n)))
			}
			return routeRequest(src(), rng.Int64N(int64(n)))
		default:
			// Zipf draws plus a repeat of the first, shuffled: every
			// batch carries a duplicate for the coalescing layer.
			srcs := make([]int64, rmatBatch)
			for i := range rmatBatch - 1 {
				srcs[i] = src()
			}
			srcs[rmatBatch-1] = srcs[0]
			rng.Shuffle(len(srcs), func(i, j int) { srcs[i], srcs[j] = srcs[j], srcs[i] })
			last = srcs[0]
			return batchRequest(srcs, rmatTopK)
		}
	}
	for range rmatWarm {
		warm = append(warm, draw())
	}
	for range count {
		timed = append(timed, draw())
	}
	return warm, timed
}

func distinctVertices(rng *rand.Rand, n, k int) []int64 {
	seen := make(map[int64]bool, k)
	out := make([]int64, 0, k)
	for len(out) < k {
		v := rng.Int64N(int64(n))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func randomVertices(rng *rand.Rand, n, k int) []int64 {
	out := make([]int64, k)
	for i := range out {
		out[i] = rng.Int64N(int64(n))
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of numbers always marshal
	}
	return b
}

func topKRequest(src int64, k int) request {
	return request{kind: kindTopK, path: "/v1/distances", sources: []int64{src}, topK: k,
		body: mustJSON(map[string]any{"graph": graphName, "source": src, "topk": k})}
}

func targetsRequest(src int64, targets []int64) request {
	return request{kind: kindTargets, path: "/v1/distances", sources: []int64{src}, targets: targets,
		body: mustJSON(map[string]any{"graph": graphName, "source": src, "targets": targets})}
}

func vectorRequest(src int64) request {
	return request{kind: kindVector, path: "/v1/distances", sources: []int64{src},
		body: mustJSON(map[string]any{"graph": graphName, "source": src})}
}

func routeRequest(src, dst int64) request {
	return request{kind: kindRoute, path: "/v1/route", sources: []int64{src}, target: dst,
		body: mustJSON(map[string]any{"graph": graphName, "source": src, "target": dst})}
}

func batchRequest(srcs []int64, k int) request {
	return request{kind: kindBatch, path: "/v1/batch", sources: srcs, topK: k,
		body: mustJSON(map[string]any{"graph": graphName, "sources": srcs, "topk": k})}
}
