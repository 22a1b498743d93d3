package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile: a tail
// percentile read off fewer samples is one or two unlucky operations, not a
// property of the program.
const minTail = 10

// rank returns the nearest-rank index of the q-th percentile in n sorted
// samples.
func rank(n int, q float64) int {
	k := int(math.Ceil(q/100*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	return k
}

// enough reports whether n samples leave at least minTail beyond the q-th
// percentile.
func enough(n int, q float64) bool { return n > 0 && n-1-rank(n, q) >= minTail }

// percentile returns the nearest-rank q-th percentile of xs. It refuses when
// fewer than minTail samples lie beyond it.
func percentile(xs []float64, q float64) (float64, error) {
	if !enough(len(xs), q) {
		return 0, fmt.Errorf("p%g of %d samples leaves fewer than %d beyond it", q, len(xs), minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)], nil
}

// median is the plain median, for counts and for the few repeated set-ups
// of one run, where no tail is read.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// frac is num/den, 0 when nothing was counted.
func frac(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
