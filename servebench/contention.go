package main

import (
	"sort"
	"sync"
	"time"
)

// On a shared virtual machine the hypervisor now and then gives the
// machine's CPUs to other guests, for seconds or minutes at a time. The
// kernel counts that time as steal. A 2-vCPU fork/join solve waits on
// both vCPUs at every barrier, so a few percent of steal slows road-cold
// by a half and more: such stretches measure the neighbours, not the
// program. The timed phase is therefore cut into one-second slices,
// each with the machine's steal share. The phase runs until its quiet
// slices add up to the requested length, or until it has waited a
// bounded time beyond that, and the latency and throughput metrics are
// taken over the requested length of least-contended slices: the quiet
// ones, or when too few came, the least bad.
const (
	sliceLen = time.Second
	// contendedSteal is the steal share above which a slice is
	// contended. On a quiet host a slice reads 0 to 0.02.
	contendedSteal = 0.02
	// plainWait bounds how much longer than requested an end-to-end
	// phase runs to gather its quiet time: long enough to outlast many
	// contended stretches, short enough that a road-cold run under
	// contention still ends well within 180 s. A traced run has two
	// phases, and each waits at most half its length.
	plainWait = 60 * time.Second
)

// hostSlice is one slice of a timed phase, as offsets from its start.
type hostSlice struct {
	from, to time.Duration
	steal    float64
}

func (s hostSlice) quiet() bool { return s.steal <= contendedSteal }

// hostWatch samples the machine's steal share once per slice while a
// timed phase runs.
type hostWatch struct {
	start time.Time
	stop  chan struct{}
	done  chan struct{}

	mu     sync.Mutex
	slices []hostSlice
	quietD time.Duration
	last   cpuTimes
	lastAt time.Duration
}

func watchHost(start time.Time) *hostWatch {
	h := &hostWatch{start: start, stop: make(chan struct{}), done: make(chan struct{}), last: readCPUTimes()}
	go func() {
		defer close(h.done)
		t := time.NewTicker(sliceLen)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.cut()
			}
		}
	}()
	return h
}

// cut closes the current slice.
func (h *hostWatch) cut() {
	now := readCPUTimes()
	at := time.Since(h.start)
	h.mu.Lock()
	defer h.mu.Unlock()
	s := hostSlice{from: h.lastAt, to: at, steal: h.last.share(now)["steal"]}
	h.slices = append(h.slices, s)
	if s.quiet() {
		h.quietD += s.to - s.from
	}
	h.last, h.lastAt = now, at
}

// quietTime is the quiet time in the slices closed so far.
func (h *hostWatch) quietTime() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quietD
}

// close stops the watch, closes the last, partial slice and returns
// every slice of the phase.
func (h *hostWatch) close() []hostSlice {
	close(h.stop)
	<-h.done
	h.cut()
	return h.slices
}

// phaseWindow says which slices of a phase the metrics use.
type phaseWindow struct {
	slices []hostSlice
	used   []bool
}

// newPhaseWindow picks the least-contended slices, in order of steal,
// until they add up to want.
func newPhaseWindow(slices []hostSlice, want time.Duration) phaseWindow {
	order := make([]int, len(slices))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return slices[order[a]].steal < slices[order[b]].steal })
	used := make([]bool, len(slices))
	var got time.Duration
	for _, i := range order {
		if got >= want {
			break
		}
		used[i] = true
		got += slices[i].to - slices[i].from
	}
	return phaseWindow{slices: slices, used: used}
}

// usedAt reports whether offset t falls in a slice the metrics use.
func (w phaseWindow) usedAt(t time.Duration) bool {
	i := sort.Search(len(w.slices), func(i int) bool { return w.slices[i].to > t })
	return i < len(w.slices) && w.used[i]
}

// seconds is the length of the slices the metrics use.
func (w phaseWindow) seconds() float64 {
	var d time.Duration
	for i, s := range w.slices {
		if w.used[i] {
			d += s.to - s.from
		}
	}
	return d.Seconds()
}

// summary is the info line describing the window.
func (w phaseWindow) summary() map[string]any {
	contended, usedContended := 0, 0
	maxSteal := 0.0
	for i, s := range w.slices {
		if !s.quiet() {
			contended++
		}
		if w.used[i] {
			maxSteal = max(maxSteal, s.steal)
			if !s.quiet() {
				usedContended++
			}
		}
	}
	return map[string]any{
		"slices": len(w.slices), "contended": contended, "steal_limit": contendedSteal,
		"measured_s": w.seconds(), "used_contended": usedContended, "used_max_steal": maxSteal,
	}
}
