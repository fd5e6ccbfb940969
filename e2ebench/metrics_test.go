package main

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestPercentileTenBeyondRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // any order
		}
		return xs
	}
	for _, tc := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{99, 0.9, false}, {100, 0.9, true},
		{999, 0.99, false}, {1000, 0.99, true},
		{19, 0.5, false}, {20, 0.5, true}, {0, 0.5, false},
	} {
		v := percentile(seq(tc.n), tc.q)
		if v.ok != tc.ok {
			t.Errorf("n=%d q=%g: reported=%v, want %v (%s)", tc.n, tc.q, v.ok, tc.ok, v.note)
		}
		if want := "n=" + strconv.Itoa(tc.n) + ","; !strings.HasPrefix(v.note, want) {
			t.Errorf("n=%d q=%g: note %q does not state the sample count", tc.n, tc.q, v.note)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	for _, tc := range []struct{ q, want float64 }{
		{0, 10}, {0.5, 25}, {1, 40}, {0.9, 37},
	} {
		if got := quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("q=%g: %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got.v != 2 || !got.ok {
		t.Errorf("median of 3, 1, 2 is %+v, want 2", got)
	}
}
