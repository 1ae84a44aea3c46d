package obsv

import "math"

// bucketQuantile estimates the q-quantile (0 ≤ q ≤ 1) of a histogram from
// its sorted upper bounds and cumulative counts (cum[len(uppers)] is the
// +Inf total) by linear interpolation inside the buckets — the estimator
// Prometheus's histogram_quantile applies server-side, computed here so
// WritePrometheus can surface p50/p95/p99 without a query engine. Returns
// NaN on an empty histogram; samples beyond the last finite bucket clamp
// to that bucket's upper bound (the estimator cannot see past its ladder).
func bucketQuantile(q float64, uppers []float64, cum []int64, total int64) float64 {
	if total == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	b := 0
	for b < len(uppers) && float64(cum[b]) < rank {
		b++
	}
	if len(uppers) == 0 || (b == len(uppers)) {
		// Landed in the +Inf overflow bucket: the best bounded answer is
		// the largest finite bound (or NaN when there is none).
		if len(uppers) == 0 {
			return math.NaN()
		}
		return uppers[len(uppers)-1]
	}
	upper := uppers[b]
	lower := 0.0
	var below int64
	if b > 0 {
		lower = uppers[b-1]
		below = cum[b-1]
	} else if upper <= 0 {
		// An all-negative first bucket has no meaningful zero floor.
		return upper
	}
	count := cum[b] - below
	if count == 0 {
		return upper
	}
	frac := (rank - float64(below)) / float64(count)
	return lower + (upper-lower)*frac
}
