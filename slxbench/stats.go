package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 for none): the
// smallest sample with at least q of the samples at or below it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Go runtime counters, read through runtime/metrics.
const (
	mAllocBytes   = "/gc/heap/allocs:bytes"
	mAllocObjects = "/gc/heap/allocs:objects"
	mGCCycles     = "/gc/cycles/total:gc-cycles"
	mGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU     = "/cpu/classes/total:cpu-seconds"
	mHeapLive     = "/gc/heap/live:bytes"
)

// gcSnap is one reading of the runtime counters.
type gcSnap struct {
	allocBytes, allocObjects, cycles uint64
	gcCPU, totalCPU                  float64
}

func readGC() gcSnap {
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mAllocObjects}, {Name: mGCCycles}, {Name: mGCCPU}, {Name: mTotalCPU}}
	metrics.Read(s)
	return gcSnap{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		cycles:       s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
		totalCPU:     s[4].Value.Float64(),
	}
}

// gcDelta is what the runtime did over a window.
type gcDelta struct {
	allocBytes, allocObjects, cycles float64
	cpuFrac                          float64
}

func (a gcSnap) since(b gcSnap) gcDelta {
	return gcDelta{
		allocBytes:   float64(a.allocBytes - b.allocBytes),
		allocObjects: float64(a.allocObjects - b.allocObjects),
		cycles:       float64(a.cycles - b.cycles),
		cpuFrac:      ratio(a.gcCPU-b.gcCPU, a.totalCPU-b.totalCPU),
	}
}

// liveHeap reads the bytes the last collection found reachable.
func liveHeap() float64 {
	s := []metrics.Sample{{Name: mHeapLive}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// heapWindow is the span of one heap-peak window.
const heapWindow = time.Second

// heapPeak samples the live heap — the bytes the last collection found
// reachable — every 10 ms until stopped, and keeps each one-second
// window's highest sample. Its peak is the median of those window peaks.
// The live heap is what the program holds; the heap in use also counts
// garbage not yet collected, whose peak follows the collector's pacing
// and so moves with the host's load. A single window's peak is no steadier:
// a collection that happens to land during a large transient (a big job's
// visited set, a long job listing being encoded) holds its reading until
// the next collection, so the median over windows is what repeats.
type heapPeak struct {
	done  chan struct{}
	wg    sync.WaitGroup
	peaks []float64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		start, peak := time.Now(), 0.0
		for {
			peak = math.Max(peak, liveHeap())
			select {
			case <-h.done:
				if len(h.peaks) == 0 { // a run shorter than one window
					h.peaks = append(h.peaks, peak)
				}
				return
			case <-tick.C:
			}
			if time.Since(start) >= heapWindow {
				h.peaks = append(h.peaks, peak)
				start, peak = time.Now(), 0
			}
		}
	}()
	return h
}

// stop ends the sampler and returns the peak in bytes.
func (h *heapPeak) stop() float64 {
	close(h.done)
	h.wg.Wait()
	return median(h.peaks)
}
