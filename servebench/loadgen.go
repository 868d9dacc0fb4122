package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math"
	"net"
	"net/http"
	"net/http/httptrace"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"radiusstep/internal/server"
)

// reqIDHeader carries a request's index into the timed stream on traced
// runs, so server-side spans can be joined with client-side samples.
const reqIDHeader = "X-Bench-Req"

// sample is one timed request as the client saw it.
type sample struct {
	req     int // index into the phase's request stream
	status  int
	err     error
	sent    time.Time
	latency time.Duration // from send to the last body byte
	bytes   int
	answer  answerKey
	ttfb    time.Duration // traced runs: send to first response byte
	body    time.Duration // traced runs: first byte to last body byte
}

// answerKey names one distinct (request, response) pair; every sample
// with the same key is checked by checking one stored response.
type answerKey struct{ req, resp uint64 }

// phaseResult is what one timed phase produced.
type phaseResult struct {
	name    string    // untraced or traced
	reqs    []request // the timed stream; samples index into it
	samples []sample
	elapsed time.Duration
	// window is the part of the phase the latency and throughput
	// metrics are taken over.
	window phaseWindow
	start  time.Time
	// answers holds one copy of each distinct response body, keyed by
	// its (request, response) pair, with the request it answered.
	answers map[answerKey]storedAnswer
	delta   statsDelta
	// peakRSS is the resident high-water mark in MiB once the phase
	// had served rssAt requests; 0 if it served fewer.
	peakRSS float64
}

type storedAnswer struct {
	req  request
	body []byte
}

// loadgen drives one server over HTTP with a fixed number of
// connections.
type loadgen struct {
	base    string
	client  *http.Client
	clients int
	traced  bool
	seed    maphash.Seed

	mu      sync.Mutex
	answers map[answerKey]storedAnswer
}

func newLoadgen(base string, clients int, traced bool) *loadgen {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}
	return &loadgen{
		base:    base,
		client:  &http.Client{Transport: tr, Timeout: 2 * time.Minute},
		clients: clients,
		traced:  traced,
		seed:    maphash.MakeSeed(),
		answers: make(map[answerKey]storedAnswer),
	}
}

func (lg *loadgen) close() { lg.client.CloseIdleConnections() }

// do sends one request and reads the whole body into buf.
func (lg *loadgen) do(ctx context.Context, idx int, r request, buf *bytes.Buffer) sample {
	s := sample{req: idx}
	var sent, first time.Time
	if lg.traced {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotFirstResponseByte: func() { first = time.Now() },
		})
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, lg.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		s.err = err
		return s
	}
	hr.Header.Set("Content-Type", "application/json")
	if lg.traced {
		hr.Header.Set(reqIDHeader, strconv.Itoa(idx))
	}
	sent = time.Now()
	s.sent = sent
	resp, err := lg.client.Do(hr)
	if err != nil {
		s.err = err
		return s
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	end := time.Now()
	resp.Body.Close()
	s.status = resp.StatusCode
	s.latency = end.Sub(sent)
	if err != nil {
		s.err = err
		return s
	}
	if lg.traced && !first.IsZero() {
		s.ttfb = first.Sub(sent)
		s.body = end.Sub(first)
	}
	s.bytes = buf.Len()
	s.answer = answerKey{req: maphash.Bytes(lg.seed, r.body), resp: maphash.Bytes(lg.seed, buf.Bytes())}
	lg.mu.Lock()
	if _, ok := lg.answers[s.answer]; !ok {
		lg.answers[s.answer] = storedAnswer{req: r, body: bytes.Clone(buf.Bytes())}
	}
	lg.mu.Unlock()
	return s
}

// warm sends reqs over all connections and fails on any non-200 answer.
func (lg *loadgen) warm(reqs []request) error {
	var next atomic.Int64
	errs := make([]error, lg.clients)
	var wg sync.WaitGroup
	for c := range lg.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				s := lg.do(context.Background(), -1, reqs[i], &buf)
				if s.err != nil || s.status != http.StatusOK {
					errs[c] = fmt.Errorf("warm-up %s: status %d: %v", reqs[i].path, s.status, s.err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// closedLoop runs every client back to back until the phase holds d
// of quiet time or has run d+wait; a request started before the end is
// waited for.
func (lg *loadgen) closedLoop(reqs []request, d, wait time.Duration, rssAt int) (*phaseResult, error) {
	var next, done atomic.Int64
	var peakRSS atomic.Uint64 // math.Float64bits
	per := make([][]sample, lg.clients)
	start := time.Now()
	deadline := start.Add(d + wait)
	watch := watchHost(start)
	more := func() bool { return time.Now().Before(deadline) && watch.quietTime() < d }
	var wg sync.WaitGroup
	for c := range lg.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for more() {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				per[c] = append(per[c], lg.do(context.Background(), i, reqs[i], &buf))
				if done.Add(1) == int64(rssAt) {
					if mb, err := peakRSSMiB(); err == nil {
						peakRSS.Store(math.Float64bits(mb))
					}
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	slices := watch.close()
	if int(next.Load()) > len(reqs) {
		return nil, fmt.Errorf("request stream of %d ran out before the phase ended", len(reqs))
	}
	return &phaseResult{
		reqs:    reqs,
		samples: mergeSamples(per),
		elapsed: elapsed,
		start:   start,
		window:  newPhaseWindow(slices, d),
		peakRSS: math.Float64frombits(peakRSS.Load()),
	}, nil
}

func mergeSamples(per [][]sample) []sample {
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	slices.SortFunc(out, func(a, b sample) int { return a.req - b.req })
	return out
}

// statsDelta is the change in /v1/stats counters over a timed phase.
type statsDelta struct {
	Solves, RouteSolves, RouteCacheHits, Coalesced, Shed int64
	Hits, Misses, Evictions                              int64
	Pushes, Stale                                        int64
}

func (d statsDelta) lookups() int64 { return d.Hits + d.Misses }

func (d statsDelta) hitRatio() float64 {
	if d.lookups() == 0 {
		return 0
	}
	return float64(d.Hits) / float64(d.lookups())
}

func fetchStats(base string) (server.StatsSnapshot, error) {
	var snap server.StatsSnapshot
	c := &http.Client{Timeout: 30 * time.Second}
	defer c.CloseIdleConnections()
	resp, err := c.Get(base + "/v1/stats")
	if err != nil {
		return snap, fmt.Errorf("fetch stats: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("fetch stats: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("decode stats: %w", err)
	}
	return snap, nil
}

func diffStats(a, b server.StatsSnapshot) statsDelta {
	return statsDelta{
		Solves:         b.Solves - a.Solves,
		RouteSolves:    b.RouteSolves - a.RouteSolves,
		RouteCacheHits: b.RouteCacheHits - a.RouteCacheHits,
		Coalesced:      b.Coalesced - a.Coalesced,
		Shed:           b.Shed - a.Shed,
		Hits:           b.Cache.Hits - a.Cache.Hits,
		Misses:         b.Cache.Misses - a.Cache.Misses,
		Evictions:      b.Cache.Evictions - a.Cache.Evictions,
		Pushes:         b.Frontier.Pushes - a.Frontier.Pushes,
		Stale:          b.Frontier.Stale - a.Frontier.Stale,
	}
}
