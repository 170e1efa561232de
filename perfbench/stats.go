package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durationsMs converts durations to float milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// heapSampler tracks the peak of the heap held live, as marked by the
// most recent GC cycle, while it runs. Live bytes do not depend on when
// the collector happens to run, so the peak repeats run to run where
// the total heap would follow GC timing.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64 // written by the sampling goroutine until done closes
}

const liveHeapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: liveHeapMetric}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// mallocs returns the cumulative number of heap objects the process has
// allocated, tiny allocations included; the difference across a loop is
// its allocation count. runtime.ReadMemStats flushes every P's
// allocation cache before it counts, as testing.AllocsPerRun relies on;
// runtime/metrics does not, so its count lags by whole cached spans.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// windowSamples is the size of the windows percentiles are taken over:
// enough that a p90 has a hundred samples beyond it and a p99 ten.
const windowSamples = 1000

// windowed splits samples, in the order they were taken, into
// consecutive windows of windowSamples (a short last window joins the
// one before it), takes the q-quantile of each and returns the median
// across windows. A stall that hits one window moves one value, not
// the result.
func windowed(samples []float64, q float64) float64 {
	n := len(samples) / windowSamples
	if n <= 1 {
		return quantile(append([]float64(nil), samples...), q)
	}
	per := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*windowSamples, (i+1)*windowSamples
		if i == n-1 {
			hi = len(samples)
		}
		per = append(per, quantile(append([]float64(nil), samples[lo:hi]...), q))
	}
	return median(per)
}

// cpuTime returns the CPU time the process has used so far, user plus
// system. On a shared virtual host it excludes time the host ran other
// tenants, which wall-clock figures do not.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
