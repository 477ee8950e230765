package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"
)

// minBeyond is the number of samples a reported percentile must have
// above it.
const minBeyond = 10

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile of xs together with
// the quantile actually used. When fewer than minBeyond samples would
// lie above the p-quantile, it falls back to the highest quantile that
// keeps minBeyond samples beyond it; with minBeyond or fewer samples no
// quantile qualifies and it falls back to the median. used != p tells
// the caller to say so.
func percentile(xs []float64, p float64) (v, used float64) {
	n := len(xs)
	if n == 0 {
		return 0, p
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	used = p
	if n-rank < minBeyond {
		rank = n - minBeyond
		if rank < 1 {
			return median(s), 0.5
		}
		used = float64(rank) / float64(n)
	}
	return s[rank-1], used
}

// percentileLabel names the quantile percentile reported, noting a
// fallback from the requested one.
func percentileLabel(p, used float64) string {
	if used == p {
		return ""
	}
	return fmt.Sprintf(" (fell back from p%g to p%.4g: fewer than %d samples beyond p%g)",
		100*p, 100*used, minBeyond, 100*p)
}

// heapSampler records the peak of live Go heap bytes while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func readHeap(s []metrics.Sample) uint64 {
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// startHeapSampler polls the heap every interval until Stop.
func startHeapSampler(interval time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			h.peak = max(h.peak, readHeap(s))
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling, waits for the sampler to exit and returns the
// peak in bytes.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	<-h.done
	return max(h.peak, readHeap([]metrics.Sample{{Name: heapMetric}}))
}

// allocBytes returns the cumulative bytes allocated by the process.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// modelHash accumulates a workload's model-clock outputs. Only
// deterministic values go in, so equal inputs give an equal hash at
// any host speed.
type modelHash struct{ h hash.Hash64 }

func newModelHash() *modelHash { return &modelHash{fnv.New64a()} }

func (m *modelHash) add(format string, args ...any) { fmt.Fprintf(m.h, format+"\n", args...) }

func (m *modelHash) sum() uint64 { return m.h.Sum64() }

// settle collects garbage so every pass starts from the same heap.
func settle() { runtime.GC() }
