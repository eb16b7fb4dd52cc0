package main

import (
	"fmt"
	"math"
	"sort"
)

// tailCandidates are the percentiles a distribution's tail may be printed
// at, highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// rank is the 1-based nearest-rank position of the p-th percentile of n
// samples.
func rank(n int, p float64) int {
	// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// beyond counts the samples of n that lie past the p-th percentile.
func beyond(n int, p float64) int { return n - rank(n, p) }

// tailPercentile picks the highest candidate percentile with at least ten
// of n samples beyond it; ok is false when even the median has fewer.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailCandidates {
		if beyond(n, p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// dist is a sample set with its order statistics.
type dist struct {
	xs []float64 // sorted
}

func newDist(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{s}
}

func (d dist) n() int { return len(d.xs) }

// pct is the nearest-rank p-th percentile.
func (d dist) pct(p float64) float64 {
	if len(d.xs) == 0 {
		return math.NaN()
	}
	return d.xs[rank(len(d.xs), p)-1]
}

// median averages the two middle samples of an even-sized set.
func (d dist) median() float64 {
	n := len(d.xs)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return d.xs[n/2]
	}
	return (d.xs[n/2-1] + d.xs[n/2]) / 2
}

func (d dist) mean() float64 {
	if len(d.xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range d.xs {
		s += x
	}
	return s / float64(len(d.xs))
}

// describe renders count, median, quartiles and the supported tail.
func (d dist) describe() string {
	if d.n() == 0 {
		return "n=0"
	}
	s := fmt.Sprintf("n=%d median=%.4g p25=%.4g p75=%.4g", d.n(), d.median(), d.pct(25), d.pct(75))
	switch p, ok := tailPercentile(d.n()); {
	case !ok:
		s += " tail=none(<10 beyond p50)"
	case p > 75:
		s += fmt.Sprintf(" p%g=%.4g", p, d.pct(p))
	}
	return s + fmt.Sprintf(" max=%.4g", d.xs[d.n()-1])
}

// describeAt renders a fixed percentile with how many samples lie beyond
// it, so a percentile the sample cannot support is visible as such.
func (d dist) describeAt(p float64) string {
	if d.n() == 0 {
		return "n=0"
	}
	return fmt.Sprintf("p%g=%.4g (%d of %d beyond)", p, d.pct(p), beyond(d.n(), p), d.n())
}

// interval is a half-open span of host time in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is parent's duration minus the part of it that the children
// cover; overlapping children count once and parts outside parent not at
// all.
func selfTime(parent interval, children []interval) int64 {
	var cs []interval
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var covered int64
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			cur.end = max(cur.end, c.end)
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}
