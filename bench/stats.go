package main

import (
	"math"
	"sort"
)

// quartiles returns the three cut points of v the way Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), so the
// spreads printed here are the ones an outside checker computes from
// the same values. With fewer than two values all three are v[0].
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(v []float64) float64 {
	_, q2, _ := quartiles(v)
	return q2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// percentile is the nearest-rank percentile of v (p in (0,100]).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

// series is one metric's measurements: a value per measured round
// and, for timings built from many operations, every sample pooled.
type series struct {
	rounds []float64
	pooled []float64
}

// recorder collects series by metric name.
type recorder map[string]*series

func (r recorder) get(name string) *series {
	s := r[name]
	if s == nil {
		s = &series{}
		r[name] = s
	}
	return s
}

// round records one round's value of a metric.
func (r recorder) round(name string, v float64) {
	s := r.get(name)
	s.rounds = append(s.rounds, v)
}

// samples records one round of a latency metric: the round's value is
// the median of its samples, and the samples join the pooled set.
func (r recorder) samples(name string, v []float64) {
	if len(v) == 0 {
		return
	}
	s := r.get(name)
	s.rounds = append(s.rounds, median(v))
	s.pooled = append(s.pooled, v...)
}
