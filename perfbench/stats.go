package main

import (
	"fmt"
	"slices"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is one unlucky request, not a percentile.
const minBeyond = 10

// ladder lists the percentiles a tail figure may use, in basis points.
var ladder = []int{5000, 9000, 9900, 9990, 9999}

// rankOf returns the 1-based nearest rank of percentile bp (basis points)
// among n sorted samples: the smallest k with k/n >= bp/10000.
func rankOf(n, bp int) int {
	k := (n*bp + 9999) / 10000
	return max(k, 1)
}

// tailBP returns the highest ladder percentile, capped at want, that has at
// least minBeyond of n samples above it, or 0 when even the median has not.
func tailBP(n, want int) int {
	best := 0
	for _, bp := range ladder {
		if bp <= want && n-rankOf(n, bp) >= minBeyond {
			best = bp
		}
	}
	return best
}

// dist is a sorted sample of durations with nearest-rank percentiles.
type dist struct{ s []time.Duration }

func newDist(samples []time.Duration) dist {
	s := slices.Clone(samples)
	slices.Sort(s)
	return dist{s}
}

func (d dist) n() int { return len(d.s) }

// at returns the nearest-rank percentile bp (basis points); 0 when empty.
func (d dist) at(bp int) time.Duration {
	if len(d.s) == 0 {
		return 0
	}
	return d.s[rankOf(len(d.s), bp)-1]
}

func (d dist) median() time.Duration { return d.at(5000) }

// tail returns the highest percentile up to want that the sample supports,
// the percentile it used, and a label such as "p99 of 5130".
func (d dist) tail(want int) (time.Duration, string) {
	bp := tailBP(len(d.s), want)
	if bp == 0 {
		return d.at(10000), fmt.Sprintf("max of %d (too few for a percentile)", len(d.s))
	}
	return d.at(bp), fmt.Sprintf("%s of %d", bpName(bp), len(d.s))
}

func bpName(bp int) string {
	switch {
	case bp%100 == 0:
		return fmt.Sprintf("p%d", bp/100)
	case bp%10 == 0:
		return fmt.Sprintf("p%d.%d", bp/100, bp%100/10)
	default:
		return fmt.Sprintf("p%d.%02d", bp/100, bp%100)
	}
}

// medianFloat returns the median of xs (the mean of the middle pair for an
// even count); 0 when empty.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// midMean returns the mean of the middle half of xs: the values left after
// dropping the lowest and the highest quarter. Like a median it ignores a
// few disturbed windows, but it does not snap to one window's value when
// the windows' figures are coarse, as CPU ticks per window are.
func midMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
