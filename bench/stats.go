package main

import (
	"math"
	"sort"
)

// sample is one timed operation: when it completed, as an offset into
// its window, and how long it took.
type sample struct {
	at  int64 // ns since the window opened
	lat int64 // ns
}

// tailBeyond is how many samples must lie beyond a reported percentile.
const tailBeyond = 10

// quantile is the nearest-rank q-quantile of sorted (ascending) values;
// 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// beyond counts the samples strictly above the nearest-rank q-quantile
// position in a set of n.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// highestPercentile is the percentile rule: of the usual ladder, the
// highest percentile that still has at least tailBeyond samples beyond
// it among n (0 when even the median has too few).
func highestPercentile(n int) float64 {
	best := 0.0
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 0.9999} {
		if beyond(n, q) >= tailBeyond {
			best = q
		}
	}
	return best
}

// blockTail is the steady tail estimate: the samples, in time order,
// are cut into as many equal blocks as still leave tailBeyond samples
// beyond q in each, and the result is the median of the blocks' own
// q-quantiles. One stalled second moves one block, not the answer.
func blockTail(lats []float64, q float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	minBlock := 1
	for beyond(minBlock, q) < tailBeyond {
		minBlock++
	}
	blocks := len(lats) / minBlock
	if blocks < 1 {
		blocks = 1
	}
	per := len(lats) / blocks
	tails := make([]float64, 0, blocks)
	for b := 0; b < blocks; b++ {
		blk := append([]float64(nil), lats[b*per:(b+1)*per]...)
		sort.Float64s(blk)
		tails = append(tails, quantile(blk, q))
	}
	return median(tails)
}

// windowRate is the throughput rule: completions are counted per whole
// one-second window and the median window is reported, so one
// noisy-neighbour second does not move the rate. A run shorter than one
// whole window falls back to total/elapsed.
func windowRate(samples []sample, elapsedNS int64) float64 {
	whole := int(elapsedNS / 1e9)
	if whole < 1 {
		if elapsedNS <= 0 {
			return 0
		}
		return float64(len(samples)) / (float64(elapsedNS) / 1e9)
	}
	counts := make([]float64, whole)
	for _, s := range samples {
		if w := int(s.at / 1e9); w >= 0 && w < whole {
			counts[w]++
		}
	}
	return median(counts)
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is
// what the acceptance driver applies to repeated runs.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// telescope turns the ordered marks of one chain (mark[0] = start,
// mark[len-1] = end) into consecutive stage durations; they sum to the
// whole by construction.
func telescope(marks []int64) []int64 {
	if len(marks) < 2 {
		return nil
	}
	out := make([]int64, len(marks)-1)
	for i := 1; i < len(marks); i++ {
		out[i-1] = marks[i] - marks[i-1]
	}
	return out
}

// remainder is the unexplained part of a cycle: what the whole took
// minus what the stages account for. With per-cycle stages it is zero;
// with stage medians it is the part medians do not add up to.
func remainder(whole float64, stages []float64) float64 {
	for _, s := range stages {
		whole -= s
	}
	return whole
}

func latsMS(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.lat) / 1e6
	}
	return out
}
