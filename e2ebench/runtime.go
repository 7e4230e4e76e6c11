package main

import (
	"math"
	"runtime/metrics"
)

// runtimeCounts holds cumulative runtime/metrics counters, or the
// difference between two readings: GC work and the GC pause histogram.
type runtimeCounts struct {
	allocBytes, allocObjects, cycles float64
	gcCPU, totalCPU                  float64
	pauseCounts                      []uint64
	pauseBuckets                     []float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() runtimeCounts {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	num := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	c := runtimeCounts{
		allocBytes:   num(s[0].Value),
		allocObjects: num(s[1].Value),
		cycles:       num(s[2].Value),
		gcCPU:        num(s[3].Value),
		totalCPU:     num(s[4].Value),
	}
	if s[5].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[5].Value.Float64Histogram()
		c.pauseCounts, c.pauseBuckets = h.Counts, h.Buckets
	}
	return c
}

// since returns the counts accumulated between then and c.
func (c runtimeCounts) since(then runtimeCounts) runtimeCounts {
	d := runtimeCounts{
		allocBytes:   c.allocBytes - then.allocBytes,
		allocObjects: c.allocObjects - then.allocObjects,
		cycles:       c.cycles - then.cycles,
		gcCPU:        c.gcCPU - then.gcCPU,
		totalCPU:     c.totalCPU - then.totalCPU,
		pauseBuckets: c.pauseBuckets,
		pauseCounts:  append([]uint64(nil), c.pauseCounts...),
	}
	for i := range d.pauseCounts {
		d.pauseCounts[i] -= then.pauseCounts[i]
	}
	return d
}

// add returns the sum of two differences.
func (c runtimeCounts) add(d runtimeCounts) runtimeCounts {
	c.allocBytes += d.allocBytes
	c.allocObjects += d.allocObjects
	c.cycles += d.cycles
	c.gcCPU += d.gcCPU
	c.totalCPU += d.totalCPU
	counts := append([]uint64(nil), d.pauseCounts...)
	for i := range counts {
		if i < len(c.pauseCounts) {
			counts[i] += c.pauseCounts[i]
		}
	}
	c.pauseCounts, c.pauseBuckets = counts, d.pauseBuckets
	return c
}

// cpuShare is GC CPU over all CPU.
func (c runtimeCounts) cpuShare() float64 {
	if c.totalCPU <= 0 {
		return 0
	}
	return c.gcCPU / c.totalCPU
}

// pauseP99MS is the upper bound of the histogram bucket holding the
// 99th-percentile GC pause, in milliseconds.
func (c runtimeCounts) pauseP99MS() float64 {
	var total uint64
	for _, n := range c.pauseCounts {
		total += n
	}
	var cum uint64
	for i, n := range c.pauseCounts {
		cum += n
		if total > 0 && float64(cum) >= 0.99*float64(total) {
			hi := c.pauseBuckets[i+1]
			if math.IsInf(hi, 1) {
				hi = c.pauseBuckets[i]
			}
			return hi * 1000
		}
	}
	return 0
}
