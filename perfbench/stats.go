package main

import (
	"fmt"
	"math"
	"sort"
)

// minTailSamples is how many samples a percentile needs beyond it
// before it is reported: p90 needs 100 samples, so that at least ten
// lie above it.
const minTailSamples = 10

// percentile returns the p-th percentile (0 < p < 100) of xs by linear
// interpolation between closest ranks. It refuses a tail percentile
// that fewer than minTailSamples samples lie beyond, so a reported p90
// always rests on at least 100 samples.
func percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", p)
	}
	if p > 50 && float64(len(xs))*(100-p)/100 < minTailSamples {
		return 0, fmt.Errorf("p%g needs %d samples, have %d",
			p, int(math.Ceil(minTailSamples*100/(100-p))), len(xs))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo)), nil
}

// median is the 50th percentile.
func median(xs []float64) float64 {
	m, err := percentile(xs, 50)
	if err != nil {
		return math.NaN()
	}
	return m
}

// quartiles returns the first quartile, the median and the third
// quartile exactly as Python's statistics.quantiles(xs, n=4) computes
// them (its default "exclusive" method), so the repeat mode reports the
// spread the acceptance rule uses. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i < 4; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}
