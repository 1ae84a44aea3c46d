package place

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestMedianMatchesSort: median returns the value sort.Float64s puts at
// index len/2, on vectors with ties, mixed −0 and +0, sorted and reversed
// runs, and random values, and only reorders its input.
func TestMedianMatchesSort(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := [][]float64{
		{3},
		{2, 1},
		{1, 1, 1, 1},
		{negZero, 0, negZero, 0, 0},
		{0, negZero, 1, -1, negZero, 0},
		{-2, negZero, 0, 0, 0, 5, 5, negZero},
		{5, 4, 3, 3, 3, 2, 1},
		{1, 2, 2, 3, 4, 5, 6, 7},
	}
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{9, 100, 1001, 4096} {
		ties := make([]float64, n)
		random := make([]float64, n)
		ascending := make([]float64, n)
		for i := range ties {
			ties[i] = float64(rng.Intn(5) - 2)
			if ties[i] == 0 && rng.Intn(2) == 0 {
				ties[i] = negZero
			}
			random[i] = rng.NormFloat64()
			ascending[i] = float64(i / 3)
		}
		descending := slices.Clone(ascending)
		slices.Reverse(descending)
		cases = append(cases, ties, random, ascending, descending)
	}
	for _, v := range cases {
		sorted := slices.Clone(v)
		sort.Float64s(sorted)
		want := sorted[len(sorted)/2]
		got := slices.Clone(v)
		if m := median(got); m != want {
			t.Fatalf("median of %d values = %v, sort gives %v", len(v), m, want)
		}
		sort.Float64s(got)
		if !slices.Equal(got, sorted) {
			t.Fatalf("median changed the values of its %d-value input, not only their order", len(v))
		}
	}
}
