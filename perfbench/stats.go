package main

import (
	"math"
	"sort"
	"time"
)

// summary is a latency distribution: its median, two tail percentiles
// and the number of samples behind them.
type summary struct {
	n             int
	p50, p90, p99 float64 // ms
}

// summarize sorts ns in place and returns its nearest-rank percentiles in
// milliseconds. An empty input summarizes to zeros.
func summarize(ns []int64) summary {
	if len(ns) == 0 {
		return summary{}
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	return summary{
		n:   len(ns),
		p50: toMs(percentile(ns, 50)),
		p90: toMs(percentile(ns, 90)),
		p99: toMs(percentile(ns, 99)),
	}
}

// summarizeSeconds summarizes latencies bucketed by the second of the
// window their flow was due in: the median over the seconds of each
// second's percentiles. A disturbance on the host that lasts less than
// half the window moves it less than a percentile over the whole window.
// n counts every sample.
func summarizeSeconds(buckets [][]int64) summary {
	var out summary
	var p50s, p90s, p99s []float64
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		s := summarize(b)
		out.n += s.n
		p50s = append(p50s, s.p50)
		p90s = append(p90s, s.p90)
		p99s = append(p99s, s.p99)
	}
	out.p50, out.p90, out.p99 = median(p50s), median(p90s), median(p99s)
	return out
}

// percentile is the nearest-rank q-th percentile of sorted values.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func toMs(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }

// median returns the median of vs (the mean of the middle pair for an
// even count); vs is sorted in place.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	mid := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[mid]
	}
	return (vs[mid-1] + vs[mid]) / 2
}

// ratio is num/den, or 0 when den is 0 (a layer the workload bypasses).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
