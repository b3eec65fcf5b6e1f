package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 <= p <= 100) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. An empty sample yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

// percentileSorted is percentile over an already ascending sample.
func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// quiet is the quiet quartile of xs: the value a quarter of the sample is
// at least as good as — the 25th percentile of a lower-is-better sample,
// the 75th of a higher-is-better one. Where noise can only make a reading
// worse, it stands clear of the noisy readings a median would sit among.
func quiet(xs []float64, better string) float64 {
	if better == "higher" {
		return percentile(xs, 75)
	}
	return percentile(xs, 25)
}

// midmean is the interquartile mean: the mean of the values from the
// first quartile to the third (at least the middle one). Like the median
// it ignores outliers; unlike the median it does not jump when a sample
// has two modes of nearly equal weight, which set-up times do.
func midmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := len(s) / 4
	return mean(s[cut : len(s)-cut])
}

// mean is the arithmetic mean; 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// relSpread is the distance between the first and the third quartile of
// xs as a share of |median| — the spread the builder's driver holds
// against a metric's bound, with quartiles as Python's
// statistics.quantiles(xs, n=4) gives them (the "exclusive" method; for
// three values that is max-min). Fewer than two values, or a zero median,
// have no spread.
func relSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := math.Abs(percentileSorted(s, 50))
	if m == 0 {
		return 0
	}
	return (exclusiveQuantile(s, 0.75) - exclusiveQuantile(s, 0.25)) / m
}

// exclusiveQuantile is the q-quantile of an ascending sample by the
// exclusive method: position q*(n+1), counted from 1, interpolated, and
// clamped to the sample's ends.
func exclusiveQuantile(s []float64, q float64) float64 {
	pos := q * float64(len(s)+1)
	lo := int(math.Floor(pos))
	switch {
	case lo < 1:
		return s[0]
	case lo >= len(s):
		return s[len(s)-1]
	}
	return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
}

// nsToUs converts a nanosecond sample to microseconds.
func nsToUs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}
