// Command servebench is the repository's serving benchmark. It runs the
// ssspd serving stack in-process — the registry loading a generated
// graph, server.New and its Handler behind a loopback http.Server with
// ssspd's timeouts — and drives it over HTTP from a load generator in
// the same process, then checks every answer against Dijkstra on an
// independently regenerated copy of the graph.
//
// Usage:
//
//	servebench --workload road-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the workload twice, untraced and then traced, and prints the
// per-layer metrics. Earlier lines of standard output describe the
// host, the inputs and the metrics' bases; the last line is the result
// as one JSON object. The exit code is 1 when an answer is wrong or a
// workload's design assertion fails, 2 on a usage or set-up error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"radiusstep/internal/server"
)

// streamSalt separates the request-stream RNG from the graph seed.
const streamSalt = 0x5e7ebe4c

func main() {
	name := flag.String("workload", "", "workload: road-cold, road-hot-vectors or rmat-mixed")
	seed := flag.Uint64("seed", 1, "seed of the graph and the request stream")
	seconds := flag.Int("seconds", 10, "length of each timed phase in seconds")
	traced := flag.Int("trace", 0, "1 prints per-layer metrics from an untraced and a traced run")
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && (*seconds < 1 || *traced < 0 || *traced > 1) {
		err = fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	cfg, err := server.ParseGraphSpec(fmt.Sprintf("%s=%s,seed=%d", graphName, w.spec, *seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	b := &bench{w: w, cfg: cfg, seed: *seed, phase: time.Duration(*seconds) * time.Second}
	var res result
	if *traced == 1 {
		b.wait = b.phase / 2
		res, err = b.runTraced()
	} else {
		b.wait = plainWait
		res, err = b.runPlain()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// bench is one run of one workload.
type bench struct {
	w     *workload
	cfg   server.GraphConfig
	seed  uint64
	phase time.Duration
	wait  time.Duration // how long a phase may run past phase for quiet time
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// info prints one descriptive line ahead of the result.
func info(key string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", fmt.Sprint(v)))
	}
	fmt.Printf("%s %s\n", key, b)
}

// loadUntraced builds the graph through the registry, as ssspd does,
// and returns the time from LoadConfig's start to the graph serving.
func (b *bench) loadUntraced() (*server.Registry, time.Duration, error) {
	reg := server.NewRegistry()
	t0 := time.Now()
	if err := reg.LoadConfig(b.cfg); err != nil {
		return nil, 0, err
	}
	if _, ok := reg.Get(b.cfg.Name); !ok {
		return nil, 0, fmt.Errorf("graph %q is not serving after LoadConfig", b.cfg.Name)
	}
	return reg, time.Since(t0), nil
}

// serve runs the workload's warm-up and one timed phase against reg,
// with ssspd's server configuration and HTTP timeouts. wrap, when
// non-nil, wraps the handler; rec, when non-nil, is reset after the
// warm-up so it holds the timed phase only.
func (b *bench) serve(reg *server.Registry, wrap func(http.Handler) http.Handler, rec *recorder) (*phaseResult, error) {
	srv := server.New(reg, server.Config{
		CacheBytes:   b.w.cacheMB << 20,
		SolveTimeout: server.DefaultSolveTimeout,
	})
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{
		Handler:      h,
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 5 * time.Minute,
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx) // a straggler only delays exit; results are in
		<-served
	}()
	base := "http://" + ln.Addr().String()

	e, ok := reg.Get(b.cfg.Name)
	if !ok {
		return nil, fmt.Errorf("graph %q is not serving", b.cfg.Name)
	}
	n := e.Backend.NumVertices()
	rng := rand.New(rand.NewPCG(b.seed, streamSalt))
	// Far more requests than any client can send in the longest phase.
	warm, timed := b.w.plan(rng, n, int((b.phase+b.wait).Seconds()*2000))

	lg := newLoadgen(base, b.w.clients, wrap != nil)
	defer lg.close()
	if err := lg.warm(warm); err != nil {
		return nil, err
	}
	if rec != nil {
		rec.reset()
	}
	before, err := fetchStats(base)
	if err != nil {
		return nil, err
	}
	cpu0 := readCPUTimes()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	ph, err := lg.closedLoop(timed, b.phase, b.wait, b.w.rssAt)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&mem1)
	info("host_cpu", cpu0.share(readCPUTimes()))
	info("contention", ph.window.summary())
	info("gc", map[string]any{"cycles": mem1.NumGC - mem0.NumGC, "heap_mb": float64(mem1.HeapAlloc) / (1 << 20)})
	after, err := fetchStats(base)
	if err != nil {
		return nil, err
	}
	ph.delta = diffStats(before, after)
	lg.mu.Lock()
	ph.answers = lg.answers
	lg.mu.Unlock()
	return ph, nil
}

// freeGraphs returns the memory of dropped registries to the OS before
// the next graph is built.
func freeGraphs() {
	runtime.GC()
	debug.FreeOSMemory()
}

// dropSetupGarbage returns the set-up's resident high-water mark, then
// collects the set-up's garbage, returns it to the OS and restarts the
// high-water mark, so that peak_rss_mb is the serving process's peak:
// memory the set-up keeps shows there, and the set-up's transient
// garbage, whose peak depends on where garbage collections happen to
// fall, does not.
func dropSetupGarbage() (float64, error) {
	peak, err := peakRSSMiB()
	if err != nil {
		return 0, err
	}
	freeGraphs()
	return peak, resetPeakRSS()
}

// runPlain is the end-to-end run: one set-up, as ssspd does, then one
// untraced timed phase.
func (b *bench) runPlain() (result, error) {
	printHost()
	reg, setup, err := b.loadUntraced()
	if err != nil {
		return result{}, err
	}
	setupPeak, err := dropSetupGarbage()
	if err != nil {
		return result{}, err
	}
	info("setup", map[string]float64{"seconds": setup.Seconds(), "peak_rss_mb": setupPeak})
	b.printGraph(reg)
	ph, err := b.serve(reg, nil, nil)
	if err != nil {
		return result{}, err
	}
	ph.name = "untraced"
	peak := ph.peakRSS
	if peak == 0 {
		if peak, err = peakRSSMiB(); err != nil {
			return result{}, err
		}
	}
	info("peak_rss", map[string]any{"mb": peak, "after_requests": min(b.w.rssAt, len(ph.samples))})
	reg = nil
	freeGraphs()

	vs, _, err := b.verify(ph)
	if err != nil {
		return result{}, err
	}
	v := vs[0]
	ok := b.checkDesign(ph.delta)
	return result{
		Correct:   ok && v.wrong == 0,
		Attempted: len(ph.samples),
		Failed:    v.failed + v.refused + v.wrong,
		Metrics: map[string]metric{
			"setup_s":         {setup.Seconds(), "s"},
			"latency_p50_ms":  {v.p50, "ms"},
			"latency_tail_ms": {v.tail, "ms"},
			"throughput_qps":  {float64(v.quietCorrect) / ph.window.seconds(), "1/s"},
			"ok_ratio":        {float64(v.correct) / float64(len(ph.samples)), "ratio"},
			"slo_ok_ratio":    {float64(v.inLimit) / float64(max(v.measured, 1)), "ratio"},
			"peak_rss_mb":     {peak, "MiB"},
		},
	}, nil
}

func (b *bench) checkDesign(d statsDelta) bool {
	info("stats_delta", d)
	if err := b.w.check(d); err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %s design assertion failed: %v\n", b.w.name, err)
		info("design", map[string]string{"error": err.Error()})
		return false
	}
	info("design", map[string]string{"ok": b.w.name})
	return true
}

func (b *bench) printGraph(reg *server.Registry) {
	e, _ := reg.Get(b.cfg.Name)
	info("graph", map[string]any{
		"spec":      b.w.spec,
		"seed":      b.seed,
		"vertices":  e.Info.Vertices,
		"arcs":      e.Info.Edges * 2,
		"shortcuts": e.Info.ShortcutsAdded,
		"landmarks": e.Info.Landmarks,
		"engine":    e.Info.Engine,
	})
}
