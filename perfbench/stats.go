package main

import (
	"cmp"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method),
// so the steadiness report matches the acceptance arithmetic exactly.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(j int) float64 {
		m := j * (n + 1)
		k := min(max(m/4, 1), n-1)
		rem := m - 4*k
		return (s[k-1]*float64(4-rem) + s[k]*float64(rem)) / 4
	}
	return at(1), at(3)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// tailOK reports whether the q-quantile of n samples has at least ten
// samples beyond it, the smallest tail worth naming.
func tailOK(n int, q float64) bool { return float64(n)*(1-q) >= 10 }

// rtStats is a runtime/metrics snapshot of the counters the benchmark
// reports as deltas over a timed phase.
type rtStats struct {
	allocBytes uint64
	gcCycles   uint64
}

var rtNames = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func readRuntime() rtStats {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtStats{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

// heapSampler tracks the highest live heap (as of the latest completed
// GC mark) seen while it runs, polling runtime/metrics every few
// milliseconds.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

// It collects garbage first: the live heap is only measured by a GC, so
// without one the first reading would be whatever the last collection
// before the timed phase (during dataset generation) saw.
func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{})}
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	poll := func() {
		metrics.Read(s)
		h.peak = max(h.peak, s[0].Value.Uint64())
	}
	poll()
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				poll()
				return
			case <-tick.C:
				poll()
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak live heap in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	h.done.Wait()
	return float64(h.peak) / (1 << 20)
}

// sortBy sorts xs by an integer key.
func sortBy[T any](xs []T, key func(T) int64) {
	slices.SortFunc(xs, func(a, b T) int { return cmp.Compare(key(a), key(b)) })
}
