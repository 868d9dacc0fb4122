package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// verdict sums up one phase's samples after the answers were checked.
type verdict struct {
	correct, failed, refused, wrong int
	// The latency metrics come from the requests sent and answered
	// within the phase's window (see phaseWindow): measured of them,
	// inLimit answered correctly within the workload's latency limit.
	measured, inLimit int
	// quietCorrect counts the correct answers that arrived within the
	// window, for the throughput.
	quietCorrect int
	p50, tail    float64
}

// verify checks every stored answer of the given phases against the
// reference, then classifies each phase's samples. It runs after the
// timed phases, so none of it is measured.
func (b *bench) verify(phases ...*phaseResult) ([]verdict, map[answerKey]bool, error) {
	all := make(map[answerKey]storedAnswer)
	for _, p := range phases {
		for k, a := range p.answers {
			all[k] = a
		}
	}
	ref, err := newReference(b.cfg, answerSources(all))
	if err != nil {
		return nil, nil, err
	}
	info("reference_graph", map[string]int{"vertices": ref.g.NumVertices(), "arcs": ref.g.NumArcs()})
	bad := make(map[answerKey]error)
	cached := make(map[answerKey]bool)
	for k, a := range all {
		c, err := ref.check(a.req, a.body)
		if err != nil {
			bad[k] = err
		}
		cached[k] = c
	}
	info("answers_checked", map[string]int{"distinct": len(all), "sources": len(ref.dist), "wrong": len(bad)})

	var out []verdict
	for _, p := range phases {
		var v verdict
		var lat []float64
		for _, s := range p.samples {
			sent := s.sent.Sub(p.start)
			endIn := s.err == nil && p.window.usedAt(sent+s.latency)
			in := p.window.usedAt(sent) && (s.err != nil || endIn)
			if in {
				v.measured++
				if s.err == nil {
					lat = append(lat, ms(s.latency))
				}
			}
			switch {
			case s.err != nil:
				v.failed++
			case s.status == http.StatusServiceUnavailable:
				v.refused++
			case s.status != http.StatusOK:
				v.failed++
			case bad[s.answer] != nil:
				v.wrong++
				if v.wrong <= 3 {
					fmt.Fprintf(os.Stderr, "servebench: wrong answer: %v\n", bad[s.answer])
				}
			default:
				v.correct++
				if in && s.latency <= b.w.limit {
					v.inLimit++
				}
				if endIn {
					v.quietCorrect++
				}
			}
		}
		slices.Sort(lat)
		v.p50 = median(lat)
		tail, pct := tailPercentile(lat)
		v.tail = tail
		attempted := len(p.samples)
		info("latency", map[string]any{
			"phase": p.name, "samples": len(lat), "p50_ms": v.p50, "tail_ms": tail, "tail_percentile": pct,
			"limit_ms": ms(b.w.limit), "clients": b.w.clients, "deciles_ms": deciles(lat),
		})
		info("outcomes", map[string]any{
			"phase": p.name, "attempted": attempted, "correct": v.correct, "failed": v.failed, "refused": v.refused, "wrong": v.wrong,
			"error_rate": float64(attempted-v.correct) / float64(max(attempted, 1)),
			"elapsed_s":  p.elapsed.Seconds(), "measured": v.measured, "measured_s": p.window.seconds(),
		})
		info("mix", map[string]any{"phase": p.name, "shares": mixShares(p), "p50_ms": kindMedians(p)})
		out = append(out, v)
	}
	return out, cached, nil
}

// mixShares reports the share of each request kind among the requests
// the phase actually sent.
func mixShares(p *phaseResult) map[string]float64 {
	counts := make(map[string]int)
	for _, s := range p.samples {
		counts[p.reqs[s.req].kind]++
	}
	out := make(map[string]float64, len(counts))
	for k, c := range counts {
		out[k] = float64(c) / float64(len(p.samples))
	}
	return out
}

// kindMedians reports the median latency of each request kind.
func kindMedians(p *phaseResult) map[string]float64 {
	lat := make(map[string][]float64)
	for _, s := range p.samples {
		k := p.reqs[s.req].kind
		lat[k] = append(lat[k], ms(s.latency))
	}
	out := make(map[string]float64, len(lat))
	for k, xs := range lat {
		out[k] = median(xs)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of xs; xs need not be sorted.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// deciles returns the 10th to 90th percentiles of sorted.
func deciles(sorted []float64) []float64 {
	if len(sorted) == 0 {
		return nil
	}
	out := make([]float64, 9)
	for i := range out {
		out[i] = sorted[(i+1)*len(sorted)/10]
	}
	return out
}

// tailPercentile returns the highest percentile of sorted that has at
// least ten samples beyond it, and that percentile. It never reports
// less than the median: with twenty samples or fewer the tail is the
// median, at the 50th percentile.
func tailPercentile(sorted []float64) (float64, float64) {
	n := len(sorted)
	if n <= 20 {
		return median(sorted), 50
	}
	return sorted[n-11], 100 * float64(n-10) / float64(n)
}

func mean(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMiB reads the process's resident high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuTimes is the machine-wide CPU time from /proc/stat, in clock ticks.
type cpuTimes struct{ total, idle, steal float64 }

// readCPUTimes reads the aggregate cpu line; it returns zeros where
// /proc/stat is not available.
func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		t.total += x
		switch i {
		case 3, 4: // idle, iowait
			t.idle += x
		case 7:
			t.steal = x
		}
	}
	return t
}

// share reports how the machine's CPU time between t and u split into
// busy, idle and stolen (taken by the hypervisor for other guests), so
// that a run slowed by a busy host can be told from a slow program.
func (t cpuTimes) share(u cpuTimes) map[string]float64 {
	d := u.total - t.total
	return map[string]float64{
		"busy":  ratio(d-(u.idle-t.idle)-(u.steal-t.steal), d),
		"idle":  ratio(u.idle-t.idle, d),
		"steal": ratio(u.steal-t.steal, d),
	}
}

// resetPeakRSS restarts the process's resident high-water mark (VmHWM)
// at its current resident size.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// printHost records the machine the numbers come from.
func printHost() {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	info("host", map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        model,
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	})
}

// runTraced is the per-layer run: an untraced phase for the /v1/stats
// counts and the untraced median, then the same workload and seed again
// with timed set-up calls, the timing backend decorator and the span
// middleware.
func (b *bench) runTraced() (result, error) {
	printHost()
	reg, _, err := b.loadUntraced()
	if err != nil {
		return result{}, err
	}
	freeGraphs() // as in the end-to-end run
	b.printGraph(reg)
	plain, err := b.serve(reg, nil, nil)
	if err != nil {
		return result{}, err
	}
	plain.name = "untraced"
	reg = nil
	freeGraphs()

	rec := newRecorder()
	if err := resetPeakRSS(); err != nil {
		return result{}, err
	}
	treg, st, err := setupTraced(b.cfg, rec)
	if err != nil {
		return result{}, err
	}
	setupPeak, err := dropSetupGarbage()
	if err != nil {
		return result{}, err
	}
	wrap := func(h http.Handler) http.Handler { return spanMiddleware(h, rec) }
	traced, err := b.serve(treg, wrap, rec)
	if err != nil {
		return result{}, err
	}
	traced.name = "traced"
	treg = nil
	freeGraphs()

	vs, cached, err := b.verify(plain, traced)
	if err != nil {
		return result{}, err
	}
	ok := b.checkDesign(plain.delta)
	info("notes", []string{
		"server.* counts, frontier.stale_ratio and server.response_bytes come from the untraced phase; every other per-layer metric from the traced phase",
		"span and per-solve timings are medians per request or means per solve; a metric whose layer the workload never reaches reads 0",
		"parallel.* come from process-global pool counters, exact only with one solve at a time (road-cold); with concurrent solves each solve's delta includes its neighbours' events",
	})

	m := layerMetrics(plain, traced, rec, cached)
	m["setup.generate_s"] = metric{st.generate.Seconds(), "s"}
	m["setup.preprocess_s"] = metric{st.preprocess.Seconds(), "s"}
	m["setup.landmarks_s"] = metric{st.landmarks.Seconds(), "s"}
	m["preprocess.shortcuts_added"] = metric{float64(st.shortcuts), "count"}
	m["setup.peak_rss_mb"] = metric{setupPeak, "MiB"}
	m["trace.overhead_ratio"] = metric{ratio(vs[1].p50, vs[0].p50), "ratio"}
	failed := 0
	wrong := 0
	for _, v := range vs {
		failed += v.failed + v.refused + v.wrong
		wrong += v.wrong
	}
	return result{
		Correct:   ok && wrong == 0,
		Attempted: len(plain.samples) + len(traced.samples),
		Failed:    failed,
		Metrics:   m,
	}, nil
}

// layerMetrics derives the per-layer metrics from the untraced phase's
// counter deltas and the traced phase's spans, backend calls and
// client-side timings.
func layerMetrics(plain, traced *phaseResult, rec *recorder, cached map[answerKey]bool) map[string]metric {
	d := plain.delta
	m := map[string]metric{
		"server.cache_hit_ratio":  {d.hitRatio(), "ratio"},
		"server.cache_evictions":  {float64(d.Evictions), "count"},
		"server.coalesced":        {float64(d.Coalesced), "count"},
		"server.solves":           {float64(d.Solves), "count"},
		"server.route_solves":     {float64(d.RouteSolves), "count"},
		"server.route_cache_hits": {float64(d.RouteCacheHits), "count"},
		"server.shed":             {float64(d.Shed), "count"},
		"frontier.stale_ratio":    {ratio(float64(d.Stale), float64(d.Pushes)), "ratio"},
	}

	var bytes float64
	for _, s := range plain.samples {
		bytes += float64(s.bytes)
	}
	m["server.response_bytes"] = metric{mean(bytes, len(plain.samples)), "B"}

	var preSolve, shape, encode, ttfb, body []float64
	for _, s := range traced.samples {
		if s.err == nil {
			ttfb = append(ttfb, ms(s.ttfb))
			body = append(body, ms(s.body))
		}
		sp := rec.spans[s.req]
		if sp == nil || sp.header.IsZero() {
			continue
		}
		encode = append(encode, ms(sp.lastWrite.Sub(sp.header)))
		switch {
		case sp.calls > 0:
			preSolve = append(preSolve, ms(sp.callStart.Sub(sp.entry)))
			shape = append(shape, ms(sp.header.Sub(sp.callEnd)))
		case cached[s.answer]:
			// A cache hit: from the end of the request body's decode
			// (which the cache lookup follows) to WriteHeader.
			shape = append(shape, ms(sp.header.Sub(sp.bodyRead)))
		}
	}
	m["server.pre_solve_ms"] = metric{median(preSolve), "ms"}
	m["server.shape_ms"] = metric{median(shape), "ms"}
	m["server.encode_ms"] = metric{median(encode), "ms"}
	m["http.ttfb_ms"] = metric{median(ttfb), "ms"}
	m["http.body_ms"] = metric{median(body), "ms"}

	var solveMs []float64
	var steps, substeps, push, pull, relax, scanned float64
	var target, collect, relaxT, filter, sorting, merge, barrier, wake float64
	var inline, participants float64
	for _, s := range rec.solves {
		solveMs = append(solveMs, ms(s.dur))
		steps += float64(s.st.Steps)
		substeps += float64(s.st.Substeps)
		push += float64(s.st.PushSubsteps)
		pull += float64(s.st.PullSubsteps)
		relax += float64(s.st.Relaxations)
		scanned += float64(s.st.EdgesScanned)
		if tl := s.tl; tl != nil {
			for _, step := range tl.StepList {
				target += float64(step.TargetNanos)
				collect += float64(step.CollectNanos)
				relaxT += float64(step.RelaxNanos)
			}
			filter += float64(tl.Frontier.FilterNanos)
			sorting += float64(tl.Frontier.SortNanos)
			merge += float64(tl.Frontier.MergeNanos)
			barrier += float64(tl.Pool.BarrierNanos)
			wake += float64(tl.Pool.WakeNanos)
			inline += float64(tl.Pool.Inline)
			participants += float64(tl.Pool.Inline + tl.Pool.Dispatched)
		}
	}
	n := len(rec.solves)
	perSolve := func(total float64) metric { return metric{mean(total, n), "count"} }
	perSolveMs := func(nanos float64) metric { return metric{mean(nanos, n) / 1e6, "ms"} }
	m["core.solve_ms"] = metric{median(solveMs), "ms"}
	m["core.steps"] = perSolve(steps)
	m["core.substeps"] = perSolve(substeps)
	m["core.push_substeps"] = perSolve(push)
	m["core.pull_substeps"] = perSolve(pull)
	m["core.relaxations"] = perSolve(relax)
	m["core.edges_scanned"] = perSolve(scanned)
	m["core.target_ms"] = perSolveMs(target)
	m["core.collect_ms"] = perSolveMs(collect)
	m["core.relax_ms"] = perSolveMs(relaxT)
	m["frontier.filter_ms"] = perSolveMs(filter)
	m["frontier.sort_ms"] = perSolveMs(sorting)
	m["frontier.merge_ms"] = perSolveMs(merge)
	m["parallel.barrier_ms"] = perSolveMs(barrier)
	m["parallel.wake_ms"] = perSolveMs(wake)
	m["parallel.inline_ratio"] = metric{ratio(inline, participants), "ratio"}

	var routeMs []float64
	var pruned, routeScanned float64
	for _, r := range rec.routes {
		routeMs = append(routeMs, ms(r.dur))
		pruned += float64(r.st.Pruned)
		routeScanned += float64(r.st.EdgesScanned)
	}
	m["core.route_ms"] = metric{median(routeMs), "ms"}
	m["landmark.pruned_ratio"] = metric{ratio(pruned, pruned+routeScanned), "ratio"}
	info("traced_calls", map[string]int{"solves": n, "routes": len(rec.routes), "spans": len(rec.spans)})
	return m
}
