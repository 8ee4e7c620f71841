package main

import (
	"math"
	"sort"
	"time"
)

// Host calibration and the estimator maths.
//
// Wall time on a shared sandbox measures the host as much as the program:
// README.md's noise study saw identical runs spread 10 to 30 % in raw wall
// time. Every timing this benchmark reports is therefore divided by how fast
// the host ran hostcal, a fixed register-only loop, at (nearly) the same
// moment. The unit that results is the calibrated second.

const (
	// hostcalIters is one lap of the reference loop, in xorshift64 steps:
	// four independent streams of hostcalIters/4 steps each. The loop keeps
	// its whole state in registers, and four streams keep the core's ALUs
	// busy, so its speed follows the two things this sandbox varies: the
	// core's clock, and how much of the core a busy sibling hardware thread
	// leaves over. One serial stream tracks only the clock — next to a busy
	// sibling it ran 3 % slower while the simulator ran 30 % slower — and a
	// loop that walks memory spread 19 % by itself; README.md has the study.
	hostcalIters = 8_000_000
	// refOpsPerSec fixes the unit: one calibrated second is the time the host
	// needs for this many steps, about one wall second on a quiet host of
	// this class.
	refOpsPerSec = 2.0e9
)

var hostcalSink uint64

// hostcal runs one lap of the reference loop and returns the wall seconds it
// took.
func hostcal() float64 {
	start := time.Now()
	a, b, c, d := uint64(88172645463325252), uint64(0x9E3779B97F4A7C15), uint64(0xD1B54A32D192ED03), uint64(0x94D049BB133111EB)
	for i := 0; i < hostcalIters/4; i++ {
		a ^= a << 13
		b ^= b << 13
		c ^= c << 13
		d ^= d << 13
		a ^= a >> 7
		b ^= b >> 7
		c ^= c >> 7
		d ^= d >> 7
		a ^= a << 17
		b ^= b << 17
		c ^= c << 17
		d ^= d << 17
	}
	hostcalSink += a + b + c + d
	return time.Since(start).Seconds()
}

// lapRate converts the wall seconds of n laps into reference iterations per
// wall second.
func lapRate(lapSeconds float64, n int) float64 {
	return float64(n) * hostcalIters / lapSeconds
}

// series is one timed loop: op i ran between laps[i] and laps[i+1], so
// len(laps) == len(ops)+1. All values are wall seconds.
type series struct {
	laps []float64
	ops  []float64
}

// timeOps calls op until it reports no more, with a hostcal lap before every
// call and after the last. op returns the wall seconds of the part of itself
// that counts, so that checks and bookkeeping stay out of the figure.
func timeOps(op func(i int) (seconds float64, more bool)) series {
	var s series
	for i, more := 0, true; more; i++ {
		s.laps = append(s.laps, hostcal())
		var d float64
		d, more = op(i)
		s.ops = append(s.ops, d)
	}
	s.laps = append(s.laps, hostcal())
	return s
}

// timed returns the wall seconds f took.
func timed(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

// runRate is the host rate over the whole series: all iterations over all
// lap time. Aggregate metrics use it.
func (s series) runRate() float64 {
	return lapRate(sum(s.laps), len(s.laps))
}

// calibrated returns each op's duration in calibrated seconds, using the
// mean of the two laps that bracket it. Percentiles use these, so a host
// that slows down mid-run slows the yardstick with the op.
func (s series) calibrated() []float64 {
	out := make([]float64, len(s.ops))
	for i, w := range s.ops {
		out[i] = w * lapRate(s.laps[i]+s.laps[i+1], 2) / refOpsPerSec
	}
	return out
}

// calibratedTotal is the summed op time in calibrated seconds at the
// run-level rate.
func (s series) calibratedTotal() float64 {
	return sum(s.ops) * s.runRate() / refOpsPerSec
}

// everyOther returns xs[first], xs[first+2], ...: one side of a loop that
// alternates two kinds of op.
func everyOther(xs []float64, first int) []float64 {
	var out []float64
	for i := first; i < len(xs); i += 2 {
		out = append(out, xs[i])
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics; NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// beyond counts the samples strictly above the p-th percentile position: the
// guide asks for at least ten before a percentile is quoted.
func beyond(n int, p float64) int {
	return n - 1 - int(math.Floor(p/100*float64(n-1)))
}

// quartiles returns Q1, the median and Q3 exactly as Python's
// statistics.quantiles(xs, n=4) does (exclusive method), because that is the
// rule the acceptance check applies to ten runs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := i*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}
