package main

import (
	"math"
	"math/rand"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, which must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// supportedPercentile is the highest percentile of an n-sample timing that
// still has at least ten samples beyond it (0 when n is too small).
func supportedPercentile(n int) float64 {
	if n <= 10 {
		return 0
	}
	return 100 * float64(n-10) / float64(n)
}

// quartiles returns the first quartile, median and third quartile of v the
// way Python's statistics.quantiles(v, n=4) does (the "exclusive" method),
// so spreads computed here equal the ones the acceptance driver computes.
// v needs at least two values; it is not modified.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := i*(m+1) - j*4 // outside 0..4 at the clamps: extrapolates, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median returns the middle value of v (mean of the two middle values for
// an even count). v is not modified.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	if m%2 == 1 {
		return s[m/2]
	}
	return (s[m/2-1] + s[m/2]) / 2
}

// spread is the inter-quartile distance of v as a share of its median —
// the run-to-run noise measure the bounds in BENCHMARK.json are sized by.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, med, q3 := quartiles(v)
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// zipf samples ranks 0..n-1 with P(rank k) proportional to 1/(k+1)^s by
// inverting a precomputed CDF. math/rand's Zipf needs s > 1; the benchmark
// wants the classic s = 1.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	var sum float64
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z *zipf) sample(rng *rand.Rand) int {
	k := sort.SearchFloat64s(z.cdf, rng.Float64())
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}
