package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted and how many samples lie beyond it. An empty input gives 0, 0.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// smoothWidth is how many order statistics on each side of the nearest rank
// a gated percentile averages over.
const smoothWidth = 3

// smoothed returns the mean of the order statistics within smoothWidth ranks
// of the nearest-rank p-th percentile (fewer near either end of the sample,
// keeping the window centred), and how many samples lie beyond that rank. A
// slice of a timed run holds hundreds to thousands of samples and the window
// spans under a hundredth of them, so the value is the percentile. The 64
// latencies of cold_shapes rise by half between neighbouring ranks around the
// median, where the lightest three-atom shapes thin out; there one sample's
// timing decides which neighbour a single rank picks, and the mean of seven
// moves a few percent where the single rank moves a third.
func smoothed(sorted []float64, p float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	_, beyond = percentile(sorted, p)
	rank := n - beyond
	w := smoothWidth
	if rank-1 < w {
		w = rank - 1
	}
	if n-rank < w {
		w = n - rank
	}
	return mean(sorted[rank-1-w : rank+w]), beyond
}

// median returns the middle value of xs (mean of the middle two when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sum(xs []float64) float64 {
	var total float64
	for _, x := range xs {
		total += x
	}
	return total
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sample is one operation of the measured part.
type sample struct {
	Start time.Time
	Dur   time.Duration
}

// latencySummary is the per-operation latency of a run.
type latencySummary struct {
	N        int
	P50, P90 float64 // ms: the median over the slices of each slice's smoothed percentile
	Beyond90 int     // samples beyond p90 in the smallest slice
	// P99 and P999 are over all samples, informational, and stay 0 unless
	// at least minBeyond samples lie beyond them.
	P99, P999 float64
}

const minBeyond = 10

// throughputSlices is how many equal slices the measured part of a timed run
// is cut into. The rate and the latency percentiles are computed per slice
// and the median slice is reported, so a stall of a few seconds, which this
// two-core sandbox produces now and then, moves the reported numbers little.
const throughputSlices = 6

// summarize cuts [from, to) into slices by completion time and reports the
// median slice's rate (answers per second) and percentiles.
func summarize(samples []sample, from, to time.Time, slices int) (latencySummary, float64) {
	width := to.Sub(from) / time.Duration(slices)
	if width <= 0 {
		return latencySummary{}, 0
	}
	bySlice := make([][]float64, slices)
	var all []float64
	for _, s := range samples {
		all = append(all, ms(s.Dur))
		if i := int(s.Start.Add(s.Dur).Sub(from) / width); i >= 0 && i < slices {
			bySlice[i] = append(bySlice[i], ms(s.Dur))
		}
	}
	out := latencySummary{N: len(all), Beyond90: len(all)}
	var rates, p50s, p90s []float64
	for _, lat := range bySlice {
		sort.Float64s(lat)
		rates = append(rates, float64(len(lat))/width.Seconds())
		p50, _ := smoothed(lat, 50)
		p90, beyond := smoothed(lat, 90)
		p50s, p90s = append(p50s, p50), append(p90s, p90)
		if beyond < out.Beyond90 {
			out.Beyond90 = beyond
		}
	}
	out.P50, out.P90 = median(p50s), median(p90s)
	sort.Float64s(all)
	if v, beyond := percentile(all, 99); beyond >= minBeyond {
		out.P99 = v
	}
	if v, beyond := percentile(all, 99.9); beyond >= minBeyond {
		out.P999 = v
	}
	return out, median(rates)
}
