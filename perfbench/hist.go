package main

import (
	"math"
	"time"
)

// hist counts latencies in buckets 0.5% wide from 1µs up, so it holds a
// run's latencies in constant memory. A record that grew through the run
// would raise the live heap of the process the daemon shares, and with it
// slow the collector's pace: on hit, the daemon then got faster as the
// record grew.
type hist struct {
	n int64
	b [histBuckets]int64
}

const (
	histBase    = time.Microsecond
	histGrowth  = 1.005
	histBuckets = 4096 // up to about 12 minutes
)

func (h *hist) add(d time.Duration) {
	i := 0
	if d > histBase {
		i = min(int(math.Log(float64(d)/float64(histBase))/math.Log(histGrowth)), histBuckets-1)
	}
	h.b[i]++
	h.n++
}

func (h *hist) merge(g *hist) {
	h.n += g.n
	for i, c := range g.b {
		h.b[i] += c
	}
}

// quantile returns the nearest-rank q-quantile, interpolated
// geometrically within its bucket (0 for an empty histogram).
func (h *hist) quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := max(1, int64(math.Ceil(q*float64(h.n))))
	var below int64
	for i, c := range h.b {
		if below+c >= rank {
			frac := (float64(rank-below) - 0.5) / float64(c)
			return time.Duration(float64(histBase) * math.Pow(histGrowth, float64(i)+frac))
		}
		below += c
	}
	return 0
}
